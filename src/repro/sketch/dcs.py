"""The Distinct-Count Sketch and the BaseTopk estimator (Sections 3-4).

Structure (Figure 2): a geometric first-level hash ``h`` partitions the
pair domain ``[m^2]`` into ``Theta(log m)`` levels with exponentially
decreasing probabilities; each level holds ``r`` independent second-level
hash tables of ``s`` buckets; each bucket keeps a
:class:`~repro.sketch.signature.CountSignature`.

Maintenance (Section 3): an update ``(u, v, +/-1)`` touches one bucket in
each of the ``r`` tables of level ``h(u, v)`` — ``O(r log m)`` counter
operations, independent of the stream length.  Because signatures are
linear, the sketch is *delete-resistant*: after a matched insert/delete
it is bit-identical to a sketch that never saw the pair.

Estimation (Section 4, Figures 3-4): ``BaseTopk`` walks levels top-down,
recovering singleton buckets into a distinct sample until the sample
reaches ``(1 + eps) * s / 16`` pairs, then reports the k most frequent
destinations in the sample with frequencies scaled by ``2^b``.

Note on the paper's pseudocode: Figure 3 decrements ``b`` once more after
the final ``GetdSample`` call, but Lemma 4.3's analysis scales by ``2^b``
where ``b`` is the *lowest level actually included in the sample*.  We
follow the analysis (scale by the last sampled level), which is the
unbiased choice: a pair lands at level ``>= b`` with probability exactly
``2^-b``.
"""

from __future__ import annotations

from operator import index
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .._accel import np as _np
from ..exceptions import MergeError, ParameterError
from ..hashing import (
    CarterWegmanBank,
    CarterWegmanHash,
    GeometricLevelHash,
    derive_seed,
)
from ..obs.catalog import (
    SKETCH_ACTIVE_LEVELS,
    SKETCH_MERGES,
    SKETCH_OCCUPIED_BUCKETS,
    SKETCH_QUERIES,
    SKETCH_QUERY_SAMPLE_SIZE,
    SKETCH_SCALAR_FALLBACKS,
    SKETCH_SIGNATURE_COLLISIONS,
    SKETCH_SINGLETONS_RECOVERED,
    SKETCH_SWEEP_DURATION,
    SKETCH_TOPK_CANDIDATES,
    SKETCH_UPDATES,
)
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..types import AddressDomain, FlowUpdate, cut_stream
from .arena import SignatureArena
from .estimate import TopKResult, build_result, rank_frequencies
from .params import SketchParams
from .signature import CountSignature, SignatureTable

#: Default relative-error parameter used when a query does not supply one.
DEFAULT_EPSILON = 0.25

#: Valid values for the ``backend`` constructor argument.
BACKENDS = ("reference", "packed")

#: Whole-slab decode copies counters into 32-bit scratch when every
#: counter is provably below this bound (each update's delta is +/-1,
#: so ``|counter| <= updates_processed``); wider states use int64.
_INT32_SAFE = 2 ** 31

#: Either store of Figure 2's counter array, keyed by flat bucket id.
_Store = Union[SignatureArena, SignatureTable]

#: The one address type :func:`encode_batch` encodes with numpy.
_PLAIN_INT = frozenset({int})

#: Most updates the batch engine folds in one pass (the default
#: ``process_stream`` cut): bounds the pass's temporaries, whatever
#: the size of the batch handed to :meth:`DistinctCountSketch.update_batch`.
FOLD_PASS = 1024


def _key_runs(keys: Any) -> Tuple[Any, Any, Any]:  # hot-path
    """Sort ``keys`` once: ``(order, distinct keys, run starts)``.

    ``keys[order]`` is ascending, and its run of equal keys number
    ``i`` starts at ``starts[i]`` and holds ``distinct[i]`` (see
    :func:`_sum_runs`).  ``keys`` must be non-empty.
    """
    order = keys.argsort()
    ordered = keys[order]
    heads = _np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = heads.nonzero()[0]
    return order, ordered[starts], starts


def _unit_delta(delta: Any) -> int:
    """``operator.index(delta)``, which must be +1 or -1.

    The stream model (Section 2) and the proof behind
    :data:`_INT32_SAFE` rest on unit deltas: a non-integer raises
    ``TypeError``, any other integer ``ParameterError``.
    """
    delta = index(delta)
    if delta != 1 and delta != -1:
        raise ParameterError(f"delta must be +1 or -1, got {delta}")
    return delta


# linear: per-key sums are exact integer addition (RL013)
def _sum_runs(rows: Any, picks: Any, starts: Any) -> Any:  # hot-path
    """Sum the rows ``rows[picks]`` over each run beginning at ``starts``.

    A run of one row is that row, gathered directly; the longer runs
    are summed by one ``np.add.reduceat`` over just their rows.
    (``reduceat`` pays a fixed cost per run, and most keys of a pass
    are hit once.)
    """
    lengths = _np.concatenate((starts[1:], (len(picks),))) - starts
    sums = rows[picks[starts]]
    longer = lengths > 1
    if bool(longer.any()):
        grouped = picks[longer.repeat(lengths)]
        sizes = lengths[longer]
        sums[longer] = _np.add.reduceat(
            rows[grouped], sizes.cumsum() - sizes, axis=0
        )
    return sums


# linear: a pair's net delta is the exact integer sum of its deltas (RL013)
def _net_pairs(codes: Any, deltas: Any) -> Tuple[Any, Any]:  # hot-path
    """Net a pass by pair: the pairs whose deltas do not cancel.

    The sketch is linear in the update multiset (Section 3), so a
    pass folds to the same counters as its pairs' net deltas.  Sorts
    the codes once (:func:`_key_runs`); a pass whose codes are all
    distinct comes back unchanged, otherwise each pair's deltas are
    summed by one 1-D ``np.add.reduceat`` and the pairs that net to
    zero are dropped.  A net delta may be any integer (+2 for a pair
    inserted twice), so the rows built from it stay exact int64.
    ``codes`` must be non-empty.
    """
    order, distinct, starts = _key_runs(codes)
    if len(starts) == len(codes):
        return codes, deltas
    sums = _np.add.reduceat(deltas[order], starts)
    kept = sums.nonzero()[0]
    return distinct[kept], sums[kept]


def encode_batch(
    domain: AddressDomain, batch: List[FlowUpdate]
) -> Tuple[Any, Any]:  # hot-path
    """Pair codes and deltas of a whole batch, before any counter moves.

    The one validating encoder of every batch path (sketches and shard
    routers alike).  A batch of plain ``int`` addresses (``type(x) is
    int``: floats, bools, numpy integers and other int subclasses do
    not qualify) and integer deltas of +1 or -1, inside a domain of at
    most 64-bit pair codes, is encoded with numpy and no dtype
    discovery: the address and delta columns are gathered as lists and
    converted by ``np.fromiter``, the addresses range-checked, then
    shifted and or-ed into uint64 codes, with int64 deltas.  Any other
    batch, and one whose addresses do not fit int64 or the domain, goes
    update by update through the scalar
    :meth:`~repro.types.AddressDomain.encode_pair` and the unit-delta
    check of per-update processing, so it raises the
    :class:`~repro.exceptions.DomainError`, ``TypeError`` or
    :class:`~repro.exceptions.ParameterError` that per-update
    processing raises, at the same update.  What the scalar path
    accepts comes back as the same two arrays, except that pair codes
    wider than 64 bits come back as an object ndarray of Python ints.
    """
    count = len(batch)
    addresses = [u.source for u in batch]
    addresses += [u.dest for u in batch]
    deltas = [u.delta for u in batch]
    bits = domain.address_bits
    plain = {*map(type, addresses)} == _PLAIN_INT
    # Every delta equals +1 or -1, and none is a float (or other
    # non-integer) equal to one: that would make the sum a non-int.
    if (
        plain
        and domain.pair_bits <= 64
        and deltas.count(1) + deltas.count(-1) == count
        and type(sum(deltas)) is int
    ):
        try:
            columns = _np.fromiter(addresses, _np.int64, 2 * count)
        except OverflowError:
            columns = None
        # A negative or too-large address has bits at or above `bits`,
        # so the addresses that pass read the same as uint64.
        if columns is not None and not (columns >> bits).any():
            columns = columns.view(_np.uint64)
            codes = columns[:count] << _np.uint64(bits)
            codes |= columns[count:]
            return codes, _np.fromiter(deltas, _np.int64, count)
    encode = domain.encode_pair
    pairs = []
    signs = []
    for update in batch:
        pairs.append(encode(update.source, update.dest))
        signs.append(_unit_delta(update.delta))
    dtype = _np.uint64 if domain.pair_bits <= 64 else object
    return _np.array(pairs, dtype=dtype), _np.array(signs, dtype=_np.int64)


class HashedBatch(NamedTuple):
    """An encoded batch, hashed once for every sketch of one shape and seed.

    :meth:`DistinctCountSketch.hash_encoded` builds it and
    :meth:`DistinctCountSketch.apply_hashed` applies it; one batch can
    feed several sketches (the monitor's all-time sketch and its
    window sum), which then share one encode and one hash.
    """

    #: Shape of the sketch that hashed the batch.
    params: SketchParams
    #: Seed of the sketch that hashed the batch.
    seed: int
    #: Pair codes, as :func:`encode_batch` returns them.
    codes: Any
    #: Deltas, as :func:`encode_batch` returns them.
    deltas: Any
    #: One ``(distinct keys, summed counter rows)`` block per fold pass
    #: of at most :data:`FOLD_PASS` updates (see
    #: :meth:`DistinctCountSketch._hash_pass`); a pass whose pairs all
    #: cancel gives an empty block.  ``None`` when the batch is not
    #: hashed: the hashing sketch takes the per-pair path (the
    #: reference store), or the batch came from
    #: :meth:`DistinctCountSketch.update_encoded`, whose sketch hashes
    #: each pass as it folds it.
    blocks: Optional[List[Tuple[Any, Any]]]


class DistinctCountSketch:
    """Delete-resistant synopsis for top-k distinct-source frequencies.

    Args:
        params: sketch shape, or an :class:`AddressDomain` (in which case
            ``r``/``s`` are taken from the keyword arguments).
        seed: root seed; all hash functions derive from it, so two
            sketches with equal params and seed are structurally
            identical (and therefore mergeable).
        obs: optional :class:`~repro.obs.Registry` for runtime metrics
            (see ``docs/observability.md``).  ``None`` (the default)
            resolves to the no-op null registry, so uninstrumented
            sketches pay one empty method call per update.
        backend: ``"packed"`` (the default: every counter in one
            :class:`~repro.sketch.arena.SignatureArena` slab feeding
            the vectorized :meth:`update_batch` engine) or
            ``"reference"`` (a
            :class:`~repro.sketch.signature.SignatureTable` of
            per-bucket ``CountSignature`` objects, the paper-faithful
            store — the test oracle, and the store the per-update
            timing reproductions measure).  The sketch picks its store
            here and runs one body against either; both are
            bit-identical: same seeds imply :meth:`structurally_equal`
            states after the same stream.  Packed storage holds pair
            codes of at most 64 bits (one uint64 lane, the paper's
            IPv4 domain), so a wider domain builds the reference store
            whichever is asked for, and :attr:`backend` reports it.

    Example:
        >>> from repro.types import AddressDomain
        >>> sketch = DistinctCountSketch(AddressDomain(2 ** 16), seed=7)
        >>> for source in range(50):
        ...     sketch.insert(source, dest=9)
        >>> result = sketch.base_topk(1)
        >>> result.destinations[0]
        9
    """

    def __init__(
        self,
        params: Union[SketchParams, AddressDomain],
        *,
        r: int = 3,
        s: int = 128,
        seed: int = 0,
        obs: Optional[Registry] = None,
        backend: str = "packed",
    ) -> None:
        if isinstance(params, AddressDomain):
            params = SketchParams(domain=params, r=r, s=s)
        if backend not in BACKENDS:
            raise ParameterError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if params.pair_bits > 64:
            backend = "reference"
        self.params = params
        self.seed = int(seed)
        self.domain = params.domain
        #: Storage backend the sketch resolved to: ``"reference"`` or
        #: ``"packed"``.
        self.backend = backend
        self._level_hash = GeometricLevelHash(
            max_level=params.num_levels - 1,
            seed=derive_seed(self.seed, "level-hash"),
        )
        self._inner_hashes: List[CarterWegmanHash] = [
            CarterWegmanHash(
                range_size=params.s,
                seed=derive_seed(self.seed, "inner-hash", j),
            )
            for j in range(params.r)
        ]
        #: The inner hashes evaluated together, one row per table.
        self._inner_bank = CarterWegmanBank(self._inner_hashes)
        #: Each row's table index ``j``, as an ``(r, 1)`` column.
        self._table_ids = _np.arange(params.r, dtype=_np.int64).reshape(-1, 1)
        tables = params.num_levels * params.r
        #: Figure 2's whole counter array, keyed by flat bucket id (see
        #: :meth:`_key`): the packed slab, or the reference store's
        #: per-table signature dicts.
        self._store: _Store = (
            SignatureArena(params.pair_bits, tables * params.s)
            if backend == "packed"
            else SignatureTable(params.pair_bits, tables, params.s)
        )
        #: The vectorized engine: batches fold as hashed blocks and
        #: queries decode the whole slab.
        self._slab_engine = backend == "packed"
        #: Number of stream updates processed (the paper's ``n``).
        self.updates_processed = 0
        #: Net sum of deltas across all updates.
        self.net_total = 0
        #: Observability registry (the null registry when ``obs=None``).
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(SKETCH_UPDATES)
        # Pre-bound children: the hot path must not pay a labels() call.
        self._obs_inserts = updates.labels(op="insert")
        self._obs_deletes = updates.labels(op="delete")
        self._obs_queries = self.obs.counter_from(SKETCH_QUERIES)
        self._obs_singletons = self.obs.counter_from(
            SKETCH_SINGLETONS_RECOVERED
        )
        self._obs_collisions = self.obs.counter_from(
            SKETCH_SIGNATURE_COLLISIONS
        )
        # Per-level children pre-bound at construction so the query
        # path never pays a labels() lookup (the null registry's
        # labels() returns the shared no-op child, so this is free
        # for uninstrumented sketches).
        self._obs_singletons_by_level = [
            self._obs_singletons.labels(level=str(level))
            for level in range(params.num_levels)
        ]
        self._obs_collisions_by_level = [
            self._obs_collisions.labels(level=str(level))
            for level in range(params.num_levels)
        ]
        self._obs_sample_size = self.obs.histogram_from(
            SKETCH_QUERY_SAMPLE_SIZE
        )
        self._obs_topk_candidates = self.obs.histogram_from(
            SKETCH_TOPK_CANDIDATES
        )
        self._obs_scalar_fallbacks = self.obs.counter_from(
            SKETCH_SCALAR_FALLBACKS
        )
        # Registered eagerly so the family exports even before the
        # first *sampled* sweep span observes into it (the tracer
        # shares this registry under `repro-ddos serve`).
        self.obs.histogram_from(SKETCH_SWEEP_DURATION)
        self._obs_merges = self.obs.counter_from(SKETCH_MERGES)
        self.obs.gauge_from(SKETCH_OCCUPIED_BUCKETS).watch(
            self.occupied_buckets
        )
        self.obs.gauge_from(SKETCH_ACTIVE_LEVELS).watch(self.active_levels)

    def _key(self, level: int, j: int, bucket: int) -> int:
        """Flat slab key ``(level * r + j) * s + bucket`` of one bucket.

        Raises:
            ParameterError: for coordinates outside the sketch — an
                unchecked bucket would alias a neighbouring table.
        """
        params = self.params
        if not (
            0 <= level < params.num_levels
            and 0 <= j < params.r
            and 0 <= bucket < params.s
        ):
            raise ParameterError(
                f"bucket ({level}, {j}, {bucket}) outside the sketch"
            )
        return (level * params.r + j) * params.s + bucket

    # -- maintenance (Section 3) --------------------------------------------

    def update(self, source: int, dest: int, delta: int) -> None:
        """Process one flow update ``(source, dest, delta)``.

        Raises:
            ParameterError: for a delta other than +1 or -1.
        """
        self._update_pair(self.domain.encode_pair(source, dest), delta)

    def insert(self, source: int, dest: int) -> None:
        """Process an insertion (``delta = +1``)."""
        self._update_pair(self.domain.encode_pair(source, dest), 1)

    def delete(self, source: int, dest: int) -> None:
        """Process a deletion (``delta = -1``)."""
        self._update_pair(self.domain.encode_pair(source, dest), -1)

    def process(self, update: FlowUpdate) -> None:
        """Process a :class:`~repro.types.FlowUpdate`."""
        self._update_pair(
            self.domain.encode_pair(update.source, update.dest), update.delta
        )

    def process_stream(
        self, updates: Iterable[FlowUpdate], batch_size: int = FOLD_PASS
    ) -> int:
        """Process every update from an iterable; returns the count.

        Updates are cut into chunks of ``batch_size`` and fed through
        :meth:`update_batch` — the final sketch state is bit-identical
        to per-update :meth:`process` calls; batching only changes the
        constant per-update cost.
        """
        total = 0
        for chunk in cut_stream(updates, batch_size):
            total += self.update_batch(chunk)
        return total

    def update_batch(self, updates: Iterable[FlowUpdate]) -> int:  # hot-path
        """Process a batch of updates with per-batch amortized costs.

        Bit-identical to processing the batch one update at a time (the
        sketch is a linear transform of the update multiset).  The whole
        batch is encoded (:func:`encode_batch`) before any counter
        moves, so a batch holding a malformed update raises what
        per-update :meth:`process` raises and leaves the sketch
        untouched; the encoded batch is then applied by
        :meth:`update_encoded`.  Returns the number of updates applied.
        """
        with trace_span("sketch.update_batch"):
            batch = updates if isinstance(updates, list) else list(updates)
            if not batch:
                return 0
            codes, deltas = encode_batch(self.domain, batch)
            return self.update_encoded(codes, deltas)

    def update_encoded(self, codes: Any, deltas: Any) -> int:  # hot-path
        """Apply a batch already encoded by :func:`encode_batch`.

        The half of :meth:`update_batch` that runs after encoding — what
        shard workers run on the frames their router sends.  ``codes``
        is a uint64 ndarray (an object ndarray of Python ints for pair
        codes wider than 64 bits) and ``deltas`` an int64 ndarray; the
        pair codes must lie inside the domain.  Folds the batch through
        :meth:`apply_hashed`, which hashes and folds it one pass at a
        time, so its temporaries do not grow with the batch.  Returns
        the number of updates applied.
        """
        return self.apply_hashed(
            HashedBatch(self.params, self.seed, codes, deltas, None)
        )

    def hash_encoded(self, codes: Any, deltas: Any) -> HashedBatch:  # hot-path
        """The hash half of ingestion: hash an encoded batch once.

        On the vectorized engine (packed storage) the batch is cut into
        passes of at most :data:`FOLD_PASS` updates, each hashed to one
        block of distinct slab keys and summed counter rows
        (:meth:`_hash_pass`); on the reference store the batch is left
        for the per-pair path of :meth:`apply_hashed`.  No counter moves.
        """
        blocks: Optional[List[Tuple[Any, Any]]] = None
        if self._slab_engine:
            blocks = list(self._hash_passes(codes, deltas))
        return HashedBatch(self.params, self.seed, codes, deltas, blocks)

    def apply_hashed(self, batch: HashedBatch) -> int:  # hot-path
        """The fold half of ingestion: apply a :class:`HashedBatch`.

        The blocks are folded as they are when the batch was hashed by
        a packed sketch of this sketch's shape and seed — which lets one
        hashed chunk feed several sketches — and re-hashed here
        otherwise, one pass at a time, each pass folded before the next
        is hashed; so any batch encoded for this sketch's address
        domain applies exactly.  The reference store takes the per-pair
        path (:meth:`_apply_pairs`).  The insert/delete observability
        counters receive one aggregated ``inc(n)`` each.  Returns the
        number of updates applied.

        Raises:
            ParameterError: for a batch encoded for another address
                domain (its pair codes name other pairs).
        """
        if batch.params.domain != self.domain:
            raise ParameterError(
                f"batch encoded for {batch.params.domain}, not "
                f"{self.domain}"
            )
        codes = batch.codes
        count = len(codes)
        if not count:
            return 0
        deltas = batch.deltas
        if self._slab_engine:
            blocks: Optional[Iterable[Tuple[Any, Any]]] = batch.blocks
            if blocks is None or not (
                batch.seed == self.seed and batch.params == self.params
            ):
                blocks = self._hash_passes(codes, deltas)
            self._fold_blocks(blocks)
            inserts = int(_np.count_nonzero(deltas > 0))
        else:
            inserts = self._apply_pairs(codes, deltas)
        self.updates_processed += count
        deletes = count - inserts
        self.net_total += inserts - deletes
        if inserts:
            self._obs_inserts.inc(inserts)
        if deletes:
            self._obs_deletes.inc(deletes)
        return count

    def _update_pair(self, pair: int, delta: int) -> None:
        """Apply one update for an encoded pair: the sketch hot path.

        A delta that is not an integer raises ``TypeError``, and one
        other than +1 or -1 ``ParameterError``, before any counter
        moves.
        """
        delta = _unit_delta(delta)
        self._apply_pair(pair, delta)
        self.updates_processed += 1
        self.net_total += delta
        if delta > 0:
            self._obs_inserts.inc()
        else:
            self._obs_deletes.inc()

    def _apply_pair(self, pair: int, delta: int) -> None:
        """Counter-state maintenance for one update (no bookkeeping)."""
        self._apply_at(
            pair,
            self._level_hash(pair),
            [inner_hash(pair) for inner_hash in self._inner_hashes],
            delta,
        )

    def _apply_pairs(self, codes: Any, deltas: Any) -> int:  # hot-path
        """The per-pair path of a batch; returns its insert count.

        Hashes the whole batch in bulk (``levels_many`` and one bank
        call for all inner tables, vectorized for codes below
        ``2^64``), then applies the pairs in stream order through the
        same kernel as per-update processing (:meth:`_apply_at`).
        """
        levels = self._level_hash.levels_many(codes).tolist()
        buckets = self._inner_bank.hash_many(codes).tolist()
        apply_at = self._apply_at
        inserts = 0
        for pair, level, pair_buckets, delta in zip(
            codes.tolist(), levels, zip(*buckets), deltas.tolist()
        ):
            apply_at(pair, level, pair_buckets, delta)
            if delta > 0:
                inserts += 1
        return inserts

    def _apply_at(
        self, pair: int, level: int, buckets: Any, delta: int
    ) -> None:
        """The per-pair kernel: one update whose level and per-table
        buckets are already hashed (no bookkeeping)."""
        update = self._store.update
        s = self.params.s
        key = level * self.params.r * s
        for bucket in buckets:
            update(key + bucket, pair, delta)
            key += s

    def _hash_passes(
        self, codes: Any, deltas: Any
    ) -> Iterator[Tuple[Any, Any]]:  # hot-path
        """Hash an encoded batch lazily, one block per pass of at most
        :data:`FOLD_PASS` updates (:meth:`_hash_pass`)."""
        for lo in range(0, len(codes), FOLD_PASS):
            hi = lo + FOLD_PASS
            yield self._hash_pass(codes[lo:hi], deltas[lo:hi])

    # linear: a block is exact integer sums of update rows (RL013)
    def _hash_pass(self, codes: Any, deltas: Any) -> Tuple[Any, Any]:  # hot-path
        """Hash one pass of encoded updates to one foldable block.

        A pass holding a delete is first netted by pair
        (:func:`_net_pairs`), so a pair inserted and deleted in the same
        pass costs nothing further, and a pass whose pairs all cancel
        gives an empty block.  The surviving updates are hashed to an
        ``(r, n)`` matrix of flat keys — row ``j`` holds table ``j``'s
        bucket at each update's level, built in one broadcast from the
        levels and one bank call — then the keys are sorted once and
        every distinct key's contribution rows ``[delta, bit_0 * delta,
        ...]`` summed (:func:`_sum_runs`).  Returns ``(distinct keys,
        summed rows)``, which :meth:`_fold` applies with one gather, add
        and write-back of the touched rows.
        """
        params = self.params
        count = len(codes)
        # Only a delete can cancel a pair, so an insert-only pass skips
        # the pair sort.  The gate reads the pass's input deltas, not a
        # counter, and both branches give the same block.
        if count > 1 and deltas.min() < 0:
            with trace_span("sketch.scatter"):
                codes, deltas = _net_pairs(codes, deltas)
            count = len(codes)
            if not count:
                return (
                    _np.empty(0, _np.int64),
                    _np.empty((0, params.pair_bits + 1), _np.int64),
                )
        with trace_span("sketch.hash_bulk"):
            levels = self._level_hash.levels_many(codes)
            keys = (levels * params.r + self._table_ids) * params.s
            keys += self._inner_bank.hash_many(codes)
        with trace_span("sketch.scatter"):
            order, distinct, starts = _key_runs(keys.reshape(-1))
            bits = _np.unpackbits(
                codes.astype("<u8").view(_np.uint8).reshape(count, 8),
                axis=1,
                bitorder="little",
            )
            rows = _np.empty((count, params.pair_bits + 1), _np.int64)
            rows[:, 0] = deltas
            _np.multiply(
                bits[:, :params.pair_bits], deltas[:, None], out=rows[:, 1:]
            )
            # Entry i of the flattened (r, count) key matrix belongs to
            # update i % count.
            return distinct, _sum_runs(rows, order % count, starts)

    # linear: the block fan-out folds by exact integer addition (RL013)
    def _fold_blocks(
        self, blocks: Iterable[Tuple[Any, Any]]
    ) -> None:  # hot-path
        """Fold the blocks of a batch into the slab, each as it comes:
        a lazily hashed batch (:meth:`_hash_passes`) has one pass
        hashed at a time."""
        for keys, rows in blocks:
            with trace_span("sketch.scatter"):
                self._fold(keys, rows)

    # linear: folding is exact integer addition (RL013)
    def _fold(self, keys: Any, rows: Any) -> None:  # hot-path
        """Add counter rows at distinct ``keys``.

        The one mutation point of counter state outside per-pair
        updates: batch passes, merges, subtracts, delta syncs and
        window expiry all end here (the tracking sketch folds through
        the store's ``fold_changes`` instead).
        """
        self._store.fold(keys, rows)

    # -- structural accessors -----------------------------------------------

    def level_of(self, source: int, dest: int) -> int:
        """First-level bucket the pair ``(source, dest)`` maps to."""
        return self._level_hash(self.domain.encode_pair(source, dest))

    def inner_bucket(self, j: int, source: int, dest: int) -> int:
        """Second-level bucket of the pair in inner table ``j``."""
        return self._inner_hashes[j](self.domain.encode_pair(source, dest))

    def signature_at(
        self, level: int, j: int, bucket: int
    ) -> Optional[CountSignature]:
        """The signature at ``(level, j, bucket)``, or ``None`` if empty.

        The reference store returns its stored object, the packed slab
        a copy.
        """
        return self._store.get(self._key(level, j, bucket))

    def return_singleton(self, level: int, j: int, bucket: int) -> Optional[int]:
        """The paper's ``ReturnSingleton``: decode bucket if a singleton.

        Returns the encoded pair, or ``None`` for empty/collision buckets.
        """
        return self._store.singleton_at(self._key(level, j, bucket))

    def _walk_levels(
        self, levels: Sequence[int]
    ) -> Iterator[Tuple[int, List[int]]]:
        """Decode ``levels`` in order: ``(level, singleton codes)`` each.

        The store's ``decode_levels`` (on packed storage one whole-slab
        pass, on 32-bit counters when ``updates_processed`` proves that
        safe; on the reference store a level's ``r`` tables at a time,
        each counted as a scalar fallback).  A level's singleton and
        collision counters are incremented as the walk reaches it, once
        per scan, so a walk that stops early records only the levels it
        visited.
        """
        fallbacks = 0 if self._slab_engine else self.params.r
        decoded = self._store.decode_levels(
            levels,
            self.params.r * self.params.s,
            narrow=self.updates_processed < _INT32_SAFE,
        )
        for level, (codes, collisions) in zip(levels, decoded):
            if fallbacks:
                self._obs_scalar_fallbacks.inc(fallbacks)
            if codes:
                self._obs_singletons_by_level[level].inc(len(codes))
            if collisions:
                self._obs_collisions_by_level[level].inc(collisions)
            yield level, codes

    def dsample_sweep(self) -> Dict[int, Set[int]]:
        """``GetdSample`` for every level of the sketch in one pass.

        Returns ``{level: sample}`` for all levels: on packed storage
        one application of the slab kernel — the fastest way to
        materialize the full distinct-sample hierarchy (diagnostics,
        benchmarks, exhaustive queries).  Observability counters
        receive the same per-level increments as ``num_levels``
        individual :meth:`get_dsample` calls.
        """
        with trace_span("sketch.dsample_sweep", metric=SKETCH_SWEEP_DURATION):
            return {
                level: set(codes)
                for level, codes in self._walk_levels(
                    range(self.params.num_levels)
                )
            }

    def get_dsample(self, level: int) -> Set[int]:
        """The paper's ``GetdSample``: all singleton pairs at ``level``.

        Decodes every occupied second-level bucket of the level across
        all ``r`` inner tables; duplicates (a pair singleton in several
        tables) collapse in the returned set.

        Raises:
            ParameterError: for a level outside the sketch.
        """
        self._key(level, 0, 0)
        _, codes = next(self._walk_levels([level]))
        return set(codes)

    def active_levels(self) -> int:
        """Number of first-level buckets currently holding any state."""
        params = self.params
        sizes = self._store.occupied_per_table(params.s)
        return int(sizes.reshape(-1, params.r).any(axis=1).sum())

    @property
    def is_empty(self) -> bool:
        """True when the sketch holds no state at all."""
        return not self._store

    # -- estimation (Section 4) ----------------------------------------------

    def collect_distinct_sample(
        self, epsilon: float = DEFAULT_EPSILON
    ) -> Tuple[Set[int], int, float]:
        """Walk levels top-down building the distinct sample (Fig 3, 1-7).

        Returns ``(sample, stop_level, target_size)`` where ``sample`` is
        a set of encoded pairs recovered from levels ``>= stop_level``.
        """
        target = self.params.sample_target(epsilon)
        sample: Set[int] = set()
        stop_level = 0
        # On packed storage the first level decodes the whole slab in
        # one kernel pass; the reference store never decodes below the
        # stop level.
        for stop_level, codes in self._walk_levels(
            range(self.params.num_levels - 1, -1, -1)
        ):
            sample.update(codes)
            if len(sample) >= target:
                break
        self._obs_sample_size.observe(len(sample))
        return sample, stop_level, target

    def sample_destination_frequencies(
        self, sample: Set[int]
    ) -> Dict[int, int]:
        """Occurrence frequency ``f_v^s`` of each destination in a sample."""
        frequencies: Dict[int, int] = {}
        decode = self.domain.decode_pair
        for pair in sample:
            dest = decode(pair)[1]
            frequencies[dest] = frequencies.get(dest, 0) + 1
        return frequencies

    def base_topk(
        self, k: int, epsilon: float = DEFAULT_EPSILON
    ) -> TopKResult:
        """The BaseTopk estimator (Figure 3).

        Returns the ``k`` destinations with the highest sample
        frequencies, each with estimate ``2^b * f_v^s``.  Fewer than
        ``k`` entries are returned if the sample holds fewer
        destinations.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        with trace_span("sketch.base_topk"):
            self._obs_queries.labels(kind="base_topk").inc()
            sample, stop_level, target = self.collect_distinct_sample(
                epsilon
            )
            frequencies = self.sample_destination_frequencies(sample)
            self._obs_topk_candidates.observe(len(frequencies))
            ranked = rank_frequencies(frequencies, k)
            return build_result(
                ranked=ranked,
                stop_level=stop_level,
                sample_size=len(sample),
                target_size=target,
            )

    def threshold_query(
        self, tau: int, epsilon: float = DEFAULT_EPSILON
    ) -> TopKResult:
        """All destinations with estimated frequency ``>= tau``.

        The Section 2 footnote-3 variant of the tracking problem: instead
        of a fixed ``k``, report every destination whose estimated
        distinct-source frequency reaches the threshold.
        """
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        self._obs_queries.labels(kind="threshold").inc()
        sample, stop_level, target = self.collect_distinct_sample(epsilon)
        frequencies = self.sample_destination_frequencies(sample)
        scale = 1 << stop_level
        ranked = rank_frequencies({
            dest: freq
            for dest, freq in frequencies.items()
            if scale * freq >= tau
        })
        return build_result(
            ranked=ranked,
            stop_level=stop_level,
            sample_size=len(sample),
            target_size=target,
        )

    def estimate_distinct_pairs(
        self, epsilon: float = DEFAULT_EPSILON
    ) -> int:
        """Estimate ``U``, the number of distinct active pairs.

        Uses the same distinct sample: ``U_hat = |sample| * 2^b``.
        """
        self._obs_queries.labels(kind="distinct_pairs").inc()
        sample, stop_level, _ = self.collect_distinct_sample(epsilon)
        return len(sample) << stop_level

    # -- merging and copying ---------------------------------------------------

    def compatible_with(self, other: "DistinctCountSketch") -> bool:
        """True when ``other`` has identical params and seed."""
        return self.params == other.params and self.seed == other.seed

    # linear: merge must stay an exact integer addition (RL013)
    def merge(self, other: "DistinctCountSketch") -> None:
        """Fold ``other`` into this sketch in place.

        Valid because the sketch is a linear transform of the stream:
        merging per-router sketches yields exactly the sketch of the
        interleaved streams (Figure 1's multiple update streams).
        """
        if not self.compatible_with(other):
            raise MergeError(
                "sketches must share params and seed to merge"
            )
        self._add_counters(other, 1)
        self.updates_processed += other.updates_processed
        self.net_total += other.net_total
        self._obs_merges.inc()

    # linear: subtract must stay an exact integer subtraction (RL013)
    def subtract(self, other: "DistinctCountSketch") -> None:
        """Remove ``other``'s contribution from this sketch in place.

        The −1-multiplicity merge: because the sketch is a linear
        transform of the update stream, subtracting the sketch of a
        sub-stream leaves exactly the sketch of the remaining updates,
        bit-for-bit — as if the subtracted updates had never been seen.
        :class:`repro.monitor.SlidingWindowSketch` expires a sub-epoch
        the same way, from its delta run (:meth:`apply_bucket_deltas`).

        ``other``'s counter rows are negated and folded in one pass
        (:meth:`_fold`), on either backend.  Buckets that net to zero
        are pruned, so the result is structurally equal to a
        from-scratch sketch of the remaining stream.
        """
        if not self.compatible_with(other):
            raise MergeError(
                "sketches must share params and seed to subtract"
            )
        self._add_counters(other, -1)
        self.updates_processed -= other.updates_processed
        self.net_total -= other.net_total
        self._obs_merges.inc()

    # linear: counter addition with multiplicity +/-1 (RL013)
    def _add_counters(self, other: "DistinctCountSketch", sign: int) -> None:
        """Add ``sign`` (+1 or -1) times ``other``'s counters in place."""
        keys, rows = other._export_rows()
        if len(keys):
            # The exported rows are a fresh copy: scale in place.
            _np.multiply(rows, sign, out=rows)
            self._fold(keys, rows)

    def _export_rows(self) -> Tuple[Any, Any]:
        """Every occupied bucket: ascending slab keys, ``(n, stride)`` rows.

        The counter rows are int64, on either backend.
        """
        keys, rows = self._store.export_rows()
        return keys, rows.reshape(len(keys), self.params.pair_bits + 1)

    # linear: delta folding must stay an exact integer addition (RL013)
    def apply_bucket_deltas(self, keys: Any, rows: Any) -> None:
        """Fold signed counter-delta rows into the sketch.

        ``keys`` is an int64 ndarray of flat bucket keys ``(level * r +
        j) * s + bucket`` and ``rows`` the matching ``(len(keys),
        pair_bits + 1)`` int64 delta matrix (:meth:`drain_deltas` or
        ``SignatureArena.export_rows`` output reshaped); repeated keys
        are summed.  Because the sketch is linear, adding another
        sketch's per-bucket counter deltas is exactly equivalent to
        having processed its updates here — the incremental-merge
        primitive behind the process-backed ``ShardedSketch`` sync, and
        (negated) the expiry of a sliding window's sub-epoch.  Buckets
        whose rows net to zero are pruned, and the tracking subclass
        maintains its sample state through the same fold the batch
        engine uses.  Does **not** adjust
        ``updates_processed``/``net_total`` (callers account for those).

        Raises:
            ParameterError: for rows of the wrong shape, or for keys
                outside the sketch.
        """
        stride = self.params.pair_bits + 1
        if rows.shape != (len(keys), stride):
            raise ParameterError(
                f"delta rows of shape {rows.shape} do not match "
                f"{len(keys)} keys of {stride} counters"
            )
        if len(keys) == 0:
            return
        order, distinct, starts = _key_runs(keys)
        self._check_keys(distinct)
        self._fold(distinct, _sum_runs(rows, order, starts))

    def _check_keys(self, keys: Any) -> None:
        """Reject ascending slab ``keys`` that fall outside the sketch."""
        params = self.params
        size = params.num_levels * params.r * params.s
        if keys[0] < 0 or keys[-1] >= size:
            raise ParameterError(
                f"bucket keys must lie in [0, {size}), got "
                f"{keys[0]}..{keys[-1]}"
            )

    # -- delta tracking ------------------------------------------------------

    def track_deltas(self) -> None:
        """Start recording counter deltas for :meth:`drain_deltas`.

        Packed storage switches on the slab's dirty-key index (the one
        shard workers ship deltas from); the reference store keeps a
        copy of its counter rows and diffs against it.
        """
        self._store.track_deltas(True)

    # linear: deltas are exact counter differences (RL013)
    def drain_deltas(self) -> Tuple[Any, Any]:  # hot-path
        """The signed counter rows this sketch gained since the last drain.

        Returns ``(keys, rows)``: distinct int64 flat bucket keys and
        their ``(len(keys), pair_bits + 1)`` int64 delta rows, keys
        whose rows net to zero left out; the record then restarts.
        Counted from :meth:`track_deltas`, the previous drain or
        :meth:`reset_deltas`, whichever came last.  By linearity,
        folding the rows into a copy of the sketch as it stood then
        (:meth:`apply_bucket_deltas`) reproduces the sketch.

        Raises:
            ParameterError: on the reference store before
                :meth:`track_deltas`.
        """
        keys, rows = self._store.drain_deltas()
        return keys, rows.reshape(len(keys), self.params.pair_bits + 1)

    def reset_deltas(self) -> None:
        """Restart the :meth:`drain_deltas` record from the current state."""
        self._store.reset_deltas()

    def copy(self) -> "DistinctCountSketch":
        """Return a deep, independent copy of this sketch.

        The copy is *not* attached to the original's observability
        registry (it would double every pull gauge); instrument a copy
        explicitly if needed.
        """
        clone = type(self)(self.params, seed=self.seed, backend=self.backend)
        clone._store = self._store.copy()
        clone.updates_processed = self.updates_processed
        clone.net_total = self.net_total
        return clone

    def structurally_equal(self, other: "DistinctCountSketch") -> bool:
        """True when both sketches hold identical counter state.

        This is the delete-resilience test surface: a sketch that saw
        matched insert/delete pairs must be structurally equal to one
        that never saw them.  Either store compares against either
        through its exported counter rows.
        """
        if not self.compatible_with(other):
            return False
        mine_keys, mine_rows = self._store.export_rows()
        their_keys, their_rows = other._store.export_rows()
        return bool(
            _np.array_equal(mine_keys, their_keys)
            and _np.array_equal(mine_rows, their_rows)
        )

    # -- space accounting (Section 6.1) ----------------------------------------

    def space_bytes(
        self, counter_bytes: int = 4, only_active_levels: bool = True
    ) -> int:
        """Model space usage per the paper's Section 6.1 accounting.

        Charges ``r * s * (2 log m + 1) * counter_bytes`` per first-level
        bucket, counting only non-empty levels by default (the paper's
        "approximately 23 non-empty buckets at U = 8e6").
        """
        levels = (
            self.active_levels() if only_active_levels else self.params.num_levels
        )
        return self.params.allocated_bytes(
            active_levels=levels, counter_bytes=counter_bytes
        )

    def occupied_buckets(self) -> int:
        """Number of second-level buckets currently holding state."""
        return len(self._store)

    def __repr__(self) -> str:
        return (
            f"DistinctCountSketch(m={self.domain.m}, r={self.params.r}, "
            f"s={self.params.s}, levels={self.params.num_levels}, "
            f"updates={self.updates_processed})"
        )

    def _iter_signatures(
        self,
    ) -> Iterator[Tuple[int, int, int, CountSignature]]:
        """Yield ``(level, j, bucket, signature)`` for all occupied buckets.

        In ascending ``(level, j, bucket)`` order on both backends, so
        the serialized payload does not depend on storage layout.
        Packed signatures are copies; reference ones the stored objects.
        """
        store = self._store
        r = self.params.r
        s = self.params.s
        for key in store.occupied_keys().tolist():
            table, bucket = divmod(key, s)
            level, j = divmod(table, r)
            signature = store.get(key)
            assert signature is not None
            yield level, j, bucket, signature

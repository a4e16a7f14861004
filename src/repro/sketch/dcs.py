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

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
    cast,
)

from .._accel import np as _np
from .._accel import to_uint64_array as _to_uint64_array
from ..exceptions import MergeError, ParameterError
from ..hashing import CarterWegmanHash, GeometricLevelHash, derive_seed
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
from .arena import SignatureArena, pack_codes, singleton_mask
from .estimate import TopKResult, build_result, rank_frequencies
from .params import SketchParams
from .signature import CountSignature

#: Default relative-error parameter used when a query does not supply one.
DEFAULT_EPSILON = 0.25

#: One second-level table's state: the reference sparse map
#: bucket-index -> signature, or its packed-arena equivalent.
BucketStore = Union[Dict[int, CountSignature], SignatureArena]

# A level's state: one store per inner table.
LevelTables = List[BucketStore]

#: Valid values for the ``backend`` constructor argument.
BACKENDS = ("reference", "packed")

#: Whole-walk decode copies counters into 32-bit scratch when every
#: counter is provably below this bound (each update's delta is +/-1,
#: so ``|counter| <= updates_processed``); wider states use int64.
_INT32_SAFE = 2 ** 31


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
        backend: ``"packed"`` (the default: flat
            :class:`~repro.sketch.arena.SignatureArena` storage feeding
            the vectorized :meth:`update_batch` engine) or
            ``"reference"`` (per-bucket ``CountSignature`` objects, the
            paper-faithful store — the test oracle, and the store the
            per-update timing reproductions measure).  Both backends
            are bit-identical: same seeds imply
            :meth:`structurally_equal` states after the same stream.

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
        self.params = params
        self.seed = int(seed)
        self.domain = params.domain
        #: Storage backend: ``"reference"`` or ``"packed"``.
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
        self._tables: List[LevelTables] = [
            [self._new_store() for _ in range(params.r)]
            for _ in range(params.num_levels)
        ]
        # Typed alias of the same store objects for the packed hot path
        # (saves an isinstance branch per update).
        self._arenas: Optional[List[List[SignatureArena]]] = None
        if backend == "packed":
            self._arenas = [
                [cast(SignatureArena, store) for store in level_tables]
                for level_tables in self._tables
            ]
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

    def _new_store(self) -> BucketStore:
        """One second-level table's empty store for this backend."""
        if self.backend == "packed":
            return SignatureArena(self.params.pair_bits, self.params.s)
        return {}

    # -- maintenance (Section 3) --------------------------------------------

    def update(self, source: int, dest: int, delta: int) -> None:
        """Process one flow update ``(source, dest, delta)``."""
        if delta not in (1, -1):
            raise ParameterError(f"delta must be +1 or -1, got {delta}")
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
        self, updates: Iterable[FlowUpdate], batch_size: int = 1024
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
        sketch is a linear transform of the update multiset), but: the
        first- and second-level hashes are evaluated through their bulk
        ``levels_many``/``hash_many`` methods, packed-backend counter
        updates become one vectorized scatter per touched arena, and
        the insert/delete observability counters receive one aggregated
        ``inc(n)`` each.  Returns the number of updates applied.
        """
        with trace_span("sketch.update_batch"):
            encode = self.domain.encode_pair
            pairs: List[int] = []
            deltas: List[int] = []
            pairs_append = pairs.append
            deltas_append = deltas.append
            inserts = 0
            for update in updates:
                delta = update.delta
                pairs_append(encode(update.source, update.dest))
                deltas_append(delta)
                if delta > 0:
                    inserts += 1
            count = len(pairs)
            if not count:
                return 0
            self._apply_pairs_batch(pairs, deltas)
            self.updates_processed += count
            deletes = count - inserts
            self.net_total += inserts - deletes
            if inserts:
                self._obs_inserts.inc(inserts)
            if deletes:
                self._obs_deletes.inc(deletes)
            return count

    def _update_pair(self, pair: int, delta: int) -> None:
        """Apply one update for an encoded pair: the sketch hot path."""
        self._apply_pair(pair, delta)
        self.updates_processed += 1
        self.net_total += delta
        if delta > 0:
            self._obs_inserts.inc()
        else:
            self._obs_deletes.inc()

    def _apply_pair(self, pair: int, delta: int) -> None:
        """Counter-state maintenance for one update (no bookkeeping)."""
        level = self._level_hash(pair)
        arenas = self._arenas
        if arenas is not None:
            arena_row = arenas[level]
            for j, inner_hash in enumerate(self._inner_hashes):
                arena_row[j].update(inner_hash(pair), pair, delta)
            return
        tables = self._tables[level]
        pair_bits = self.params.pair_bits
        for j, inner_hash in enumerate(self._inner_hashes):
            bucket = inner_hash(pair)
            table = tables[j]
            signature = table.get(bucket)
            if signature is None:
                signature = CountSignature(pair_bits)
                table[bucket] = signature
            signature.update(pair, delta)
            if signature.is_zero:
                # Prune emptied buckets so "absent" always means "empty";
                # this also keeps the sketch identical to one that never
                # saw a deleted pair.
                del table[bucket]

    def _apply_pairs_batch(
        self, pairs: List[int], deltas: List[int]
    ) -> None:  # hot-path
        """Apply encoded-pair updates, vectorized when possible.

        Falls back to the sequential per-pair path on the reference
        backend or for pair domains wider than 64 bits.
        """
        if self._arenas is not None:
            codes = _to_uint64_array(pairs)
            if codes is not None:
                self._apply_batch_vectorized(codes, deltas)
                return
        apply_pair = self._apply_pair
        for index in range(len(pairs)):
            apply_pair(pairs[index], deltas[index])

    def _apply_batch_vectorized(
        self, codes: Any, deltas: List[int]
    ) -> None:  # hot-path
        """The packed-backend batch engine: group, then scatter.

        Sorts the batch by level (stable, so per-bucket update order is
        preserved — not that order matters: counter addition commutes),
        builds the per-update contribution matrix ``[delta, bit_0 *
        delta, ...]`` once, and for each ``(level, table)`` group adds
        all contributions with a single ``np.add.at`` scatter into the
        arena's flat buffer.
        """
        arenas = self._arenas
        assert arenas is not None
        with trace_span("sketch.hash_bulk"):
            levels = self._level_hash.levels_many(codes)
            order = _np.argsort(levels, kind="stable")
            codes_sorted = codes[order]
            deltas_sorted = _np.asarray(deltas, dtype=_np.int64)[order]
            levels_sorted = levels[order]
            bucket_arrays = [
                inner_hash.hash_many(codes_sorted)
                for inner_hash in self._inner_hashes
            ]
        pair_bits = self.params.pair_bits
        shifts = _np.arange(pair_bits, dtype=_np.uint64)
        bits = (
            (codes_sorted[:, None] >> shifts) & _np.uint64(1)
        ).astype(_np.int64)
        count = len(deltas)
        contrib = _np.empty((count, pair_bits + 1), dtype=_np.int64)
        contrib[:, 0] = deltas_sorted
        contrib[:, 1:] = bits * deltas_sorted[:, None]
        unique_levels, starts = _np.unique(levels_sorted, return_index=True)
        boundaries = starts.tolist()
        boundaries.append(count)
        level_list = unique_levels.tolist()
        with trace_span("sketch.scatter"):
            for group in range(len(level_list)):
                level = level_list[group]
                lo = boundaries[group]
                hi = boundaries[group + 1]
                group_contrib = contrib[lo:hi]
                arena_row = arenas[level]
                for j in range(len(bucket_arrays)):
                    store = arena_row[j]
                    slots = store.resolve_slots(bucket_arrays[j][lo:hi])
                    touched = _np.unique(slots)
                    self._scatter_into_store(
                        level, store, slots, group_contrib, touched
                    )

    def _scatter_into_store(
        self,
        level: int,
        store: SignatureArena,
        slots: Any,
        contrib: Any,
        touched: Any,
    ) -> None:  # hot-path
        """Apply one level-group's contributions to one arena.

        Overridden by the tracking sketch to diff singleton state
        around the scatter.  The view is created after slot resolution
        (allocation may have moved the buffer) and dropped before any
        further allocation.
        """
        store.note_touched(touched)
        _np.add.at(store.view2d(), slots, contrib)
        store.free_zero_slots(touched)

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
        """The signature at ``(level, j, bucket)``, or ``None`` if empty."""
        return self._tables[level][j].get(bucket)

    def return_singleton(self, level: int, j: int, bucket: int) -> Optional[int]:
        """The paper's ``ReturnSingleton``: decode bucket if a singleton.

        Returns the encoded pair, or ``None`` for empty/collision buckets.
        """
        store = self._tables[level][j]
        if isinstance(store, SignatureArena):
            return store.singleton_at(bucket)
        signature = store.get(bucket)
        if signature is None:
            return None
        return signature.recover_singleton()

    def decoded_slab(self, level: int, j: int) -> Tuple[List[int], int]:
        """Decode one ``(level, table)`` slab of occupied buckets.

        Returns ``(singleton pair codes, collision count)``.  On the
        packed backend this is a single vectorized pass over the slab's
        contiguous counter rows
        (:meth:`~repro.sketch.arena.SignatureArena.decode_slab`); on
        the reference backend — or for pair domains wider than 64 bits
        — it transparently takes the scalar per-signature path with
        identical results.  Does not touch
        observability counters (callers aggregate per scan).
        """
        store = self._tables[level][j]
        if isinstance(store, SignatureArena):
            return store.decode_slab()
        codes: List[int] = []
        append = codes.append
        collisions = 0
        for signature in store.values():
            pair = signature.recover_singleton()
            if pair is None:
                collisions += 1
            else:
                append(pair)
        return codes, collisions

    def _slab_decode_ready(self) -> bool:
        """True when whole-slab decode can serve queries on this sketch."""
        return self._arenas is not None and self.params.pair_bits <= 64

    def _decode_levels(
        self, levels: List[int]
    ) -> List[Tuple[Set[int], int, int]]:
        """Slab-decode whole levels with one application of the kernel.

        The core of the vectorized query path: gathers every requested
        level's arena buffers into one scratch matrix (downcast to
        32-bit counters when ``updates_processed`` proves that safe —
        half the bytes through every predicate pass), runs the
        :func:`~repro.sketch.arena.singleton_mask` kernel once over all
        of them, and splits the recovered codes back per level.
        Returns ``(sample, recovered, collisions)`` tuples aligned with
        ``levels``; does not touch observability counters (callers
        record only the levels they actually visit, matching the scalar
        walk).  Callers must check :meth:`_slab_decode_ready` first.
        """
        arenas = self._arenas
        assert arenas is not None
        views = []
        bounds = [0]
        occupied_by_level = []
        rows = 0
        for level in levels:
            occupied = 0
            for store in arenas[level]:
                if len(store):
                    view = store.view2d()
                    views.append(view)
                    rows += view.shape[0]
                    occupied += len(store)
            bounds.append(rows)
            occupied_by_level.append(occupied)
        if not rows:
            return [(set(), 0, 0) for _ in levels]
        dtype = (
            _np.int32 if self.updates_processed < _INT32_SAFE else _np.int64
        )
        scratch = _np.empty(
            (rows, self.params.pair_bits + 1), dtype=dtype
        )
        position = 0
        for view in views:
            count = view.shape[0]
            # Slice assignment casts while copying, so the int32 path
            # never materializes an intermediate int64 gather.
            scratch[position:position + count] = view
            position += count
        ok, ne = singleton_mask(scratch)
        index = _np.nonzero(ok)[0]
        code_list = pack_codes(~ne[index, 1:]).tolist()
        cuts = _np.searchsorted(index, _np.asarray(bounds)).tolist()
        out: List[Tuple[Set[int], int, int]] = []
        for offset, level in enumerate(levels):
            lo = cuts[offset]
            hi = cuts[offset + 1]
            out.append((
                set(code_list[lo:hi]),
                hi - lo,
                occupied_by_level[offset] - (hi - lo),
            ))
        return out

    def _record_dsample_obs(
        self, level: int, recovered: int, collisions: int
    ) -> None:
        """One aggregated inc per scan, into children pre-bound at
        construction, keeps instrumented scans cheap."""
        if recovered:
            self._obs_singletons_by_level[level].inc(recovered)
        if collisions:
            self._obs_collisions_by_level[level].inc(collisions)

    def get_dsample_batch(self, level: int) -> Set[int]:
        """``GetdSample`` over whole slabs: all singleton pairs at ``level``.

        Semantically identical to :meth:`get_dsample` — the two differ
        only in how buckets are decoded (slab-at-a-time versus the
        conceptual bucket-at-a-time scan of the paper's Figure 4).
        Duplicates (a pair singleton in several tables) collapse in the
        returned set; the per-level singleton/collision counters receive
        the same aggregate increments either way.
        """
        if self._slab_decode_ready():
            sample, recovered, collisions = self._decode_levels([level])[0]
        else:
            # Scalar fallback: one per-signature decode per inner table
            # (reference backend or pair_bits > 64).
            self._obs_scalar_fallbacks.inc(self.params.r)
            sample = set()
            recovered = 0
            collisions = 0
            for j in range(self.params.r):
                codes, slab_collisions = self.decoded_slab(level, j)
                sample.update(codes)
                recovered += len(codes)
                collisions += slab_collisions
        self._record_dsample_obs(level, recovered, collisions)
        return sample

    def dsample_sweep(self) -> Dict[int, Set[int]]:
        """``GetdSample`` for every level of the sketch in one pass.

        Returns ``{level: sample}`` for all levels.  On the packed
        backend (pair domains up to 64 bits) this decodes every arena
        of the sketch with a single application of the slab kernel — the fastest way to
        materialize the full distinct-sample hierarchy (diagnostics,
        benchmarks, exhaustive queries); elsewhere it degrades to the
        per-level scalar scan with identical results.  Observability
        counters receive the same per-level increments as ``num_levels``
        individual :meth:`get_dsample` calls.
        """
        with trace_span("sketch.dsample_sweep", metric=SKETCH_SWEEP_DURATION):
            levels = list(range(self.params.num_levels))
            if not self._slab_decode_ready():
                return {
                    level: self.get_dsample(level) for level in levels
                }
            decoded = self._decode_levels(levels)
            sweep: Dict[int, Set[int]] = {}
            for level in levels:
                sample, recovered, collisions = decoded[level]
                self._record_dsample_obs(level, recovered, collisions)
                sweep[level] = sample
            return sweep

    def get_dsample(self, level: int) -> Set[int]:
        """The paper's ``GetdSample``: all singleton pairs at ``level``.

        Decodes every occupied second-level bucket of the level across
        all ``r`` inner tables; duplicates (a pair singleton in several
        tables) collapse in the returned set.  Delegates to
        :meth:`get_dsample_batch`, which evaluates whole slabs at once
        on the packed backend and falls back to the scalar decode
        elsewhere — the answer is identical either way.
        """
        return self.get_dsample_batch(level)

    def active_levels(self) -> int:
        """Number of first-level buckets currently holding any state."""
        return sum(
            1
            for level_tables in self._tables
            if any(level_tables[j] for j in range(self.params.r))
        )

    @property
    def is_empty(self) -> bool:
        """True when the sketch holds no state at all."""
        return all(
            not table for level in self._tables for table in level
        )

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
        if self._slab_decode_ready():
            # Decode every slab of the sketch with one kernel pass, then
            # replay the top-down walk over the per-level results.  The
            # walk may stop before consuming all levels — identical to
            # the scalar walk, which never decodes below its stop level;
            # the speculative decode of the lower levels costs a few
            # vectorized passes and keeps the whole query one kernel
            # application.  Observability records visited levels only,
            # exactly as the scalar walk does.
            order = list(range(self.params.num_levels - 1, -1, -1))
            decoded = self._decode_levels(order)
            for offset, level in enumerate(order):
                level_sample, recovered, collisions = decoded[offset]
                sample |= level_sample
                self._record_dsample_obs(level, recovered, collisions)
                stop_level = level
                if len(sample) >= target:
                    break
        else:
            for level in range(self.params.num_levels - 1, -1, -1):
                sample |= self.get_dsample(level)
                stop_level = level
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
        for level in range(self.params.num_levels):
            for j in range(self.params.r):
                mine = self._tables[level][j]
                theirs = other._tables[level][j]
                if isinstance(mine, SignatureArena):
                    # Arena accessors return signature *copies*, so merge
                    # through the in-place arena primitive instead.
                    for bucket, signature in theirs.items():
                        mine.merge_signature(bucket, signature)
                    continue
                for bucket, signature in theirs.items():
                    existing = mine.get(bucket)
                    if existing is None:
                        mine[bucket] = signature.copy()
                    else:
                        existing.merge(signature)
                        if existing.is_zero:
                            del mine[bucket]
        self.updates_processed += other.updates_processed
        self.net_total += other.net_total
        self._obs_merges.inc()

    # linear: delta folding must stay an exact integer addition (RL013)
    def apply_bucket_deltas(
        self, level: int, j: int, buckets: Any, rows: Any
    ) -> None:
        """Fold signed counter-delta rows into one inner table.

        ``buckets`` is an int64 ndarray of second-level bucket indices
        and ``rows`` the matching ``(len(buckets), pair_bits + 1)``
        int64 delta matrix (``SignatureArena.drain_deltas`` output
        reshaped).  Because the sketch is linear, adding another
        sketch's per-bucket counter deltas is exactly equivalent to
        having processed its updates here — the incremental-merge
        primitive behind the process-backed ``ShardedSketch`` sync.
        Buckets whose rows net to zero are pruned, and the tracking
        subclass maintains its sample state through the same scatter
        override the batch engine uses.  Does **not** adjust
        ``updates_processed``/``net_total`` (callers account for those
        from the shard workers' cumulative totals).

        Requires the packed backend (process-backed shard banks
        require it too).
        """
        arenas = self._arenas
        if arenas is None:
            raise ParameterError(
                "apply_bucket_deltas requires backend='packed'"
            )
        if len(buckets) == 0:
            return
        store = arenas[level][j]
        slots = store.resolve_slots(buckets)
        touched = _np.unique(slots)
        self._scatter_into_store(level, store, slots, rows, touched)

    # linear: subtract must stay an exact integer subtraction (RL013)
    def subtract(self, other: "DistinctCountSketch") -> None:
        """Remove ``other``'s contribution from this sketch in place.

        The −1-multiplicity merge: because the sketch is a linear
        transform of the update stream, subtracting the sketch of a
        sub-stream leaves exactly the sketch of the remaining updates,
        bit-for-bit — as if the subtracted updates had never been seen.
        This is the expiry kernel behind
        :class:`repro.monitor.SlidingWindowSketch`: a closed sub-epoch
        sketch is merged out of the running window sum when it ages
        past the window horizon.

        When both sketches are packed each inner table is subtracted by
        negating ``other``'s exported counter rows and folding them
        through :meth:`apply_bucket_deltas`; otherwise the per-bucket
        signature path is used.  Both paths
        prune buckets that net to zero, so the result is structurally
        equal to a from-scratch sketch of the remaining stream.
        """
        if not self.compatible_with(other):
            raise MergeError(
                "sketches must share params and seed to subtract"
            )
        vectorized = self._arenas is not None and other._arenas is not None
        for level in range(self.params.num_levels):
            for j in range(self.params.r):
                theirs = other._tables[level][j]
                if vectorized:
                    store = cast(SignatureArena, theirs)
                    buckets, rows = store.export_rows()
                    if len(buckets) == 0:
                        continue
                    bucket_ids = _np.frombuffer(buckets, dtype=_np.int64)
                    deltas = -_np.frombuffer(rows, dtype=_np.int64)
                    self.apply_bucket_deltas(
                        level,
                        j,
                        bucket_ids,
                        deltas.reshape(len(bucket_ids), store.stride),
                    )
                    continue
                mine = self._tables[level][j]
                if isinstance(mine, SignatureArena):
                    for bucket, signature in theirs.items():
                        mine.subtract_signature(bucket, signature)
                    continue
                for bucket, signature in theirs.items():
                    existing = mine.get(bucket)
                    if existing is None:
                        negated = CountSignature(self.params.pair_bits)
                        negated.subtract(signature)
                        if not negated.is_zero:
                            mine[bucket] = negated
                        continue
                    existing.subtract(signature)
                    if existing.is_zero:
                        del mine[bucket]
        self.updates_processed -= other.updates_processed
        self.net_total -= other.net_total
        self._obs_merges.inc()

    def copy(self) -> "DistinctCountSketch":
        """Return a deep, independent copy of this sketch.

        The copy is *not* attached to the original's observability
        registry (it would double every pull gauge); instrument a copy
        explicitly if needed.
        """
        clone = DistinctCountSketch(
            self.params, seed=self.seed, backend=self.backend
        )
        for level in range(self.params.num_levels):
            for j in range(self.params.r):
                store = self._tables[level][j]
                if isinstance(store, SignatureArena):
                    clone._tables[level][j] = store.copy()
                else:
                    clone._tables[level][j] = {
                        bucket: signature.copy()
                        for bucket, signature in store.items()
                    }
        if clone._arenas is not None:
            clone._arenas = [
                [cast(SignatureArena, store) for store in level_tables]
                for level_tables in clone._tables
            ]
        clone.updates_processed = self.updates_processed
        clone.net_total = self.net_total
        return clone

    def structurally_equal(self, other: "DistinctCountSketch") -> bool:
        """True when both sketches hold identical counter state.

        This is the delete-resilience test surface: a sketch that saw
        matched insert/delete pairs must be structurally equal to one
        that never saw them.
        """
        if not self.compatible_with(other):
            return False
        return self._tables == other._tables

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
        return sum(
            len(table) for level in self._tables for table in level
        )

    def __repr__(self) -> str:
        return (
            f"DistinctCountSketch(m={self.domain.m}, r={self.params.r}, "
            f"s={self.params.s}, levels={self.params.num_levels}, "
            f"updates={self.updates_processed})"
        )

    def _iter_signatures(
        self,
    ) -> Iterator[Tuple[int, int, int, CountSignature]]:
        """Yield ``(level, j, bucket, signature)`` for all occupied buckets."""
        for level, level_tables in enumerate(self._tables):
            for j, table in enumerate(level_tables):
                for bucket, signature in table.items():
                    yield level, j, bucket, signature

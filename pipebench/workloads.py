"""Seeded inputs for the pipeline benchmark, with exact ground truth.

Three input families feed the four workloads (``sharded_churn`` reuses
``flows_churn``'s input exactly):

* ``netflow`` — a 10-hour :class:`~repro.netsim.traffic.Scenario` of
  background sessions, a campaign of spoofed SYN floods and one
  equal-volume flash crowd, aggregated into NetFlow-style records by
  :class:`~repro.netsim.records.RecordExporter`.
* ``churn`` — handshaking background sessions, SYN floods of three
  sizes and an equal-volume flash crowd, turned into flow updates by
  the packet-level :class:`~repro.netsim.netflow.FlowExporter`.
* ``carpet`` — a clean background prefix followed by
  :class:`~repro.streams.CarpetBombing` sweeps over 20 victims.

Every family takes the seed as an argument and nothing else varies
between runs.  Ground truth comes from the generator's own inputs, never
from the pipeline under test: the victims are the destinations the
generator attacked, and each victim's first attack update is found by
replaying the documented record→update rule (for records) or by
scanning the exported updates.  The positions are 0-based indexes into
the update stream the monitor sees, prefix included.

Generation is slow next to the timed phase (the record exporter alone
takes seconds), so :func:`load_or_generate` generates each
``(family, seed, size)`` once, in a child process, and caches it as an
``.npz`` file; later runs load the cached arrays.  Run as a program,
this module is that child::

    python3 pipebench/workloads.py FAMILY SEED SIZE OUT.npz
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.hashing import derive_seed  # noqa: E402
from repro.netsim.addresses import parse_ip  # noqa: E402
from repro.netsim.netflow import FlowExporter  # noqa: E402
from repro.netsim.records import RecordExporter, TcpFlag  # noqa: E402
from repro.netsim.traffic import (  # noqa: E402
    BackgroundTraffic,
    FlashCrowd,
    Scenario,
    SynFloodAttack,
    TrafficGenerator,
)
from repro.streams import CarpetBombing  # noqa: E402

#: Generator parameters per family; ``tiny`` overrides make the
#: harness self-tests fast and keep every workload's shape.
PARAMS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "netflow": {
        "full": {
            "servers": 200,
            "sessions": 60_000,
            "abandon": 0.02,
            "span_s": 36_000.0,
            "floods": 8,
            "flood_syns": 400,
            "flood_s": 300.0,
            "first_flood": 0.35,
            "flood_every": 0.05,
            "crowd_at": 0.55,
            "crowd_s": 600.0,
            "prefix_share": 0.3,
        },
        "tiny": {"sessions": 4_000, "floods": 3},
    },
    "churn": {
        "full": {
            "servers": 200,
            "sessions": 40_000,
            "abandon": 0.02,
            "span_s": 3_600.0,
            "flood_sizes": [200, 350, 500] * 3,
            "flood_s": 120.0,
            "first_flood": 0.3,
            "last_flood": 0.9,
            "crowd_at": 0.5,
            "crowd_s": 300.0,
            "prefix_share": 0.25,
            "prefix_align": 1_000,
        },
        "tiny": {"sessions": 4_000, "flood_sizes": [200, 350, 500]},
    },
    "carpet": {
        "full": {
            "victims": 20,
            "sources_per_burst": 400,
            "gap": 1_100,
            "rounds": 2,
            "prefix": 10_000,
        },
        "tiny": {"victims": 4, "rounds": 1, "prefix": 2_000},
    },
}

SIZES = ("full", "tiny")

#: repro packages whose code shapes the generated inputs.  The cache key
#: hashes them with this file, so edited generators never serve stale
#: cached inputs.
GENERATOR_PACKAGES = ("netsim", "streams", "hashing")

#: Seed of the attack campaign and the flash crowd.  The run's seed
#: draws the background traffic; the attacks themselves stay fixed, so
#: detection metrics compare one campaign across many backgrounds.
CAMPAIGN_SEED = 2007

_SERVER_BASE = parse_ip("198.51.100.0")
_VICTIM_BASE = parse_ip("203.0.113.1")
_CROWD_DEST = parse_ip("203.0.113.200")
_NO_FLASH = -1


def family_params(family: str, size: str) -> Dict[str, Any]:
    """The generator parameters of ``family`` at ``size``."""
    params = dict(PARAMS[family]["full"])
    if size != "full":
        params.update(PARAMS[family][size])
    return params


@dataclass
class Inputs:
    """One generated input with its ground truth.

    Attributes:
        family, seed, size: what was generated.
        columns: the event columns (records or updates), one array each.
        victims: attacked destinations.
        first_attack: per victim, the 0-based position of its first
            attack update in the monitor's update stream.
        flash: the flash-crowd destination (``-1`` when there is none).
        prefix: clean-prefix length, in input events.
        updates: length of the whole update stream the monitor sees.
        params: the generator parameters used.
    """

    family: str
    seed: int
    size: str
    columns: Dict[str, Any]
    victims: List[int]
    first_attack: Dict[int, int]
    flash: int
    prefix: int
    updates: int
    params: Dict[str, Any]

    @property
    def events(self) -> int:
        """Input events: records on ``netflow``, updates elsewhere."""
        return len(self.columns["source"])

    def digest(self) -> str:
        """SHA-256 of every column and the ground truth."""
        hasher = hashlib.sha256()
        for name in sorted(self.columns):
            array = np.ascontiguousarray(self.columns[name])
            hasher.update(f"{name}:{array.dtype.str}:".encode())
            hasher.update(array.tobytes())
        truth = {
            "victims": self.victims,
            "first_attack": sorted(self.first_attack.items()),
            "flash": self.flash,
            "prefix": self.prefix,
            "updates": self.updates,
        }
        hasher.update(json.dumps(truth, sort_keys=True).encode())
        return hasher.hexdigest()


def _background(seed: int, params: Dict[str, Any]) -> BackgroundTraffic:
    servers = [_SERVER_BASE + index for index in range(params["servers"])]
    return BackgroundTraffic(
        servers,
        sessions=params["sessions"],
        abandon_fraction=params["abandon"],
        duration=params["span_s"],
        seed=derive_seed(seed, "pipebench-background"),
    )


def _first_inserts(
    dest: Any, delta: Any, victims: List[int]
) -> Dict[int, int]:
    """First ``+1`` position per victim in an update stream."""
    first: Dict[int, int] = {}
    for victim in victims:
        hits = np.nonzero((dest == victim) & (delta > 0))[0]
        if len(hits):
            first[victim] = int(hits[0])
    return first


def expected_updates(columns: Dict[str, Any]) -> Tuple[Any, Any, Any]:
    """The update stream a record stream must convert to.

    The rule :func:`repro.netsim.records.records_to_updates` documents:
    a record with SYN but no ACK or RST opens a half-open pair (``+1``,
    once per open pair); a record with ACK or RST closes a pair that is
    open (``-1``); any other record emits nothing.  Written out here,
    independently of the converter, so it can check it.
    """
    syn, ack, rst = int(TcpFlag.SYN), int(TcpFlag.ACK), int(TcpFlag.RST)
    opened = set()
    out_source: List[int] = []
    out_dest: List[int] = []
    out_delta: List[int] = []
    for source, dest, flags in zip(
        columns["source"].tolist(),
        columns["dest"].tolist(),
        columns["flags"].tolist(),
    ):
        key = (source, dest)
        if flags & syn and not flags & (ack | rst):
            if key in opened:
                continue
            opened.add(key)
            delta = 1
        elif flags & (ack | rst) and key in opened:
            opened.discard(key)
            delta = -1
        else:
            continue
        out_source.append(source)
        out_dest.append(dest)
        out_delta.append(delta)
    return (
        np.asarray(out_source, dtype=np.int64),
        np.asarray(out_dest, dtype=np.int64),
        np.asarray(out_delta, dtype=np.int8),
    )


def _netflow(seed: int, params: Dict[str, Any]) -> Inputs:
    span = params["span_s"]
    victims = [_VICTIM_BASE + index for index in range(params["floods"])]
    generators: List[TrafficGenerator] = [_background(seed, params)]
    for index, victim in enumerate(victims):
        start = span * (params["first_flood"] + index * params["flood_every"])
        generators.append(
            SynFloodAttack(
                victim,
                flood_size=params["flood_syns"],
                start=start,
                duration=params["flood_s"],
                seed=derive_seed(CAMPAIGN_SEED, "pipebench-flood", index),
            )
        )
    generators.append(
        FlashCrowd(
            _CROWD_DEST,
            crowd_size=params["flood_syns"] * params["floods"],
            start=span * params["crowd_at"],
            duration=params["crowd_s"],
            seed=derive_seed(CAMPAIGN_SEED, "pipebench-crowd"),
        )
    )
    records = RecordExporter().export_all(Scenario(*generators).packets())
    columns = {
        "source": np.asarray([r.source for r in records], dtype=np.int64),
        "dest": np.asarray([r.dest for r in records], dtype=np.int64),
        "packets": np.asarray([r.packets for r in records], dtype=np.int64),
        "flags": np.asarray([int(r.flags) for r in records], dtype=np.int64),
        "first": np.asarray([r.first for r in records], dtype=np.float64),
        "last": np.asarray([r.last for r in records], dtype=np.float64),
    }
    stream = expected_updates(columns)
    attack_records = np.nonzero(np.isin(columns["dest"], victims))[0]
    prefix = min(
        int(len(records) * params["prefix_share"]), int(attack_records[0])
    )
    return Inputs(
        family="netflow",
        seed=seed,
        size="",
        columns=columns,
        victims=victims,
        first_attack=_first_inserts(stream[1], stream[2], victims),
        flash=_CROWD_DEST,
        prefix=prefix,
        updates=len(stream[0]),
        params=params,
    )


def _churn(seed: int, params: Dict[str, Any]) -> Inputs:
    span = params["span_s"]
    sizes = params["flood_sizes"]
    victims = [_VICTIM_BASE + index for index in range(len(sizes))]
    generators: List[TrafficGenerator] = [_background(seed, params)]
    stride = (params["last_flood"] - params["first_flood"]) / max(
        len(sizes) - 1, 1
    )
    for index, (victim, size) in enumerate(zip(victims, sizes)):
        generators.append(
            SynFloodAttack(
                victim,
                flood_size=size,
                start=span * (params["first_flood"] + index * stride),
                duration=params["flood_s"],
                seed=derive_seed(CAMPAIGN_SEED, "pipebench-flood", index),
            )
        )
    generators.append(
        FlashCrowd(
            _CROWD_DEST,
            crowd_size=sum(sizes),
            start=span * params["crowd_at"],
            duration=params["crowd_s"],
            seed=derive_seed(CAMPAIGN_SEED, "pipebench-crowd"),
        )
    )
    updates = FlowExporter().export_all(Scenario(*generators).packets())
    columns = {
        "source": np.asarray([u.source for u in updates], dtype=np.int64),
        "dest": np.asarray([u.dest for u in updates], dtype=np.int64),
        "delta": np.asarray([u.delta for u in updates], dtype=np.int8),
    }
    first = _first_inserts(columns["dest"], columns["delta"], victims)
    # The prefix ends on a multiple of ``prefix_align``, so detection
    # passes fall on the same stream positions in every pipeline.
    prefix = min(
        int(len(updates) * params["prefix_share"]), min(first.values())
    )
    prefix -= prefix % params["prefix_align"]
    return Inputs(
        family="churn",
        seed=seed,
        size="",
        columns=columns,
        victims=victims,
        first_attack=first,
        flash=_CROWD_DEST,
        prefix=prefix,
        updates=len(updates),
        params=params,
    )


def _carpet(seed: int, params: Dict[str, Any]) -> Inputs:
    victims = [_VICTIM_BASE + index for index in range(params["victims"])]
    carpet = CarpetBombing(
        victims,
        sources_per_burst=params["sources_per_burst"],
        gap=params["gap"],
        rounds=params["rounds"],
        seed=derive_seed(seed, "pipebench-carpet"),
    )
    # The clean prefix has the shape of the sweep's own background:
    # one fresh (source, dest) pair per update, so every background
    # destination stays near frequency 1.
    rng = np.random.default_rng(derive_seed(seed, "pipebench-prefix"))
    prefix = params["prefix"]
    sources = [rng.integers(2 ** 31, 2 ** 32, size=prefix, dtype=np.int64)]
    dests = [rng.integers(2 ** 16, 2 ** 17, size=prefix, dtype=np.int64)]
    sweep = list(carpet)
    sources.append(np.asarray([u.source for u in sweep], dtype=np.int64))
    dests.append(np.asarray([u.dest for u in sweep], dtype=np.int64))
    source = np.concatenate(sources)
    first: Dict[int, int] = {}
    for victim, start, _ in carpet.burst_spans():
        first.setdefault(victim, prefix + start)
    return Inputs(
        family="carpet",
        seed=seed,
        size="",
        columns={
            "source": source,
            "dest": np.concatenate(dests),
            "delta": np.ones(len(source), dtype=np.int8),
        },
        victims=victims,
        first_attack=first,
        flash=_NO_FLASH,
        prefix=prefix,
        updates=len(source),
        params=params,
    )


_GENERATORS = {"netflow": _netflow, "churn": _churn, "carpet": _carpet}


def generate(family: str, seed: int, size: str = "full") -> Inputs:
    """Generate ``family``'s input for ``seed`` (deterministic)."""
    if family not in _GENERATORS:
        raise ValueError(f"unknown input family {family!r}")
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}, got {size!r}")
    inputs = _GENERATORS[family](seed, family_params(family, size))
    inputs.size = size
    return inputs


def save(inputs: Inputs, path: Path) -> None:
    """Write ``inputs`` to ``path`` (an ``.npz`` file), atomically."""
    meta = {
        "family": inputs.family,
        "seed": inputs.seed,
        "size": inputs.size,
        "victims": inputs.victims,
        "first_attack": sorted(inputs.first_attack.items()),
        "flash": inputs.flash,
        "prefix": inputs.prefix,
        "updates": inputs.updates,
        "params": inputs.params,
    }
    arrays = {f"col_{name}": array for name, array in inputs.columns.items()}
    arrays["meta"] = np.asarray(json.dumps(meta))
    partial = path.with_name(path.name + ".partial.npz")
    np.savez(partial, **arrays)
    partial.replace(path)


def load(path: Path) -> Inputs:
    """Read inputs written by :func:`save`."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        columns = {
            key[len("col_"):]: data[key]
            for key in data.files
            if key.startswith("col_")
        }
    return Inputs(
        family=meta["family"],
        seed=meta["seed"],
        size=meta["size"],
        columns=columns,
        victims=meta["victims"],
        first_attack={int(k): int(v) for k, v in meta["first_attack"]},
        flash=meta["flash"],
        prefix=meta["prefix"],
        updates=meta["updates"],
        params=meta["params"],
    )


def _fingerprint() -> str:
    """Short hash of the generator code (this file and its repro inputs)."""
    hasher = hashlib.sha256(Path(__file__).read_bytes())
    for package in GENERATOR_PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:12]


def load_or_generate(
    family: str,
    seed: int,
    size: str,
    cache_dir: Path,
    timeout_s: float = 150.0,
) -> Inputs:
    """Cached inputs for ``(family, seed, size)``, generated on a miss.

    A miss runs this module as a child process, so the generator's time
    and memory stay out of the benchmark process.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{family}-{size}-{seed}-{_fingerprint()}.npz"
    if not path.exists():
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), family,
             str(seed), size, str(path)],
            check=True,
            timeout=timeout_s,
        )
    return load(path)


def main(argv: List[str]) -> int:
    """Generate one input file: ``FAMILY SEED SIZE OUT``."""
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    family, seed, size, out = argv
    save(generate(family, int(seed), size), Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

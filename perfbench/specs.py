"""The three benchmark workloads and their seeded inputs.

Every workload runs tHT datalets, 3 replicas per shard, 16 B keys and
32 B values, under the bench cost model (``cpu_scale=600``).  Load is
closed loop: each session sends its next op only when the previous one
returns.  Times are simulated seconds measured from load start.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.types import Consistency, Topology
from repro.workloads import KeySpace, OpMix, UniformKeys, Workload, YCSB_A, YCSB_B, ZipfKeys

__all__ = ["WorkloadSpec", "WORKLOADS", "KEY_WIDTH", "VALUE_SIZE", "CPU_SCALE",
           "key_space", "preload_items", "session_workload"]

#: "user" + 12 digits = 16-byte keys.
KEY_WIDTH = 12
VALUE_SIZE = 32
#: the bench cost model every paper figure uses.
CPU_SCALE = 600.0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    topology: Topology
    consistency: Consistency
    shards: int
    mix: OpMix
    keys: int
    zipf: bool
    clients: int
    sessions_per_client: int
    #: load before the measurement window opens (sim s).
    warmup: float
    #: measurement window length (sim s).
    window: float
    #: sim time after load start at which a fifth shard is requested.
    reshard_at: Optional[float] = None

    @property
    def sessions(self) -> int:
        return self.clients * self.sessions_per_client

    @property
    def end(self) -> float:
        return self.warmup + self.window


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("chain_writes", Topology.MS, Consistency.STRONG, shards=8,
                     mix=YCSB_A, keys=100_000, zipf=True,
                     clients=24, sessions_per_client=2,
                     warmup=2.0, window=32.0),
        WorkloadSpec("local_reads", Topology.AA, Consistency.EVENTUAL, shards=8,
                     mix=YCSB_B, keys=2_000, zipf=False,
                     clients=24, sessions_per_client=4,
                     warmup=1.0, window=20.0),
        WorkloadSpec("live_reshard", Topology.AA, Consistency.EVENTUAL, shards=4,
                     mix=YCSB_A, keys=2_000, zipf=True,
                     clients=12, sessions_per_client=4,
                     warmup=2.0, window=16.0, reshard_at=5.0),
    )
}


def key_space(spec: WorkloadSpec) -> KeySpace:
    return KeySpace(spec.keys, width=KEY_WIDTH)


def _values(rng: random.Random, n: int) -> List[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    return ["".join(rng.choices(alphabet, k=VALUE_SIZE)) for _ in range(n)]


def preload_items(spec: WorkloadSpec, seed: int) -> Dict[str, str]:
    """One value per key of the keyspace, drawn from ``seed``."""
    space = key_space(spec)
    rng = random.Random(f"preload.{seed}")
    pool = _values(rng, 256)
    return {space.key(i): pool[rng.randrange(len(pool))] for i in range(space.n)}


def session_workload(spec: WorkloadSpec, seed: int, index: int) -> Workload:
    """The op stream of session ``index``: its own rng, popularity
    sampler and value pool, all derived from ``seed``.  The Zipf
    rank-to-key scramble is fixed, as in YCSB, so which keys are hot (and
    so which shards are hot) is part of the workload, not of the seed."""
    rng = random.Random(f"session.{seed}.{index}")
    space = key_space(spec)
    if spec.zipf:
        popularity = ZipfKeys(space, theta=0.99, rng=rng)
    else:
        popularity = UniformKeys(space, rng=rng)
    return Workload(spec.mix, popularity, value_size=VALUE_SIZE, rng=rng)

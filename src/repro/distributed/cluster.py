"""Simulated multi-node cluster and the scalability sweep used for Figure 10."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dataset import NestedDataset
from repro.distributed.runners import BeamLikeRunner, RayLikeRunner, RunResult


@dataclass
class ClusterSpec:
    """Description of the simulated cluster (mirrors the paper's test platform)."""

    num_nodes: int = 1
    cores_per_node: int = 1

    @property
    def total_workers(self) -> int:
        """Number of worker processes the runners may use."""
        return max(1, self.num_nodes * self.cores_per_node)


@dataclass
class SweepPoint:
    """One point of the scalability sweep."""

    backend: str
    num_nodes: int
    #: measured host wall-clock of the run
    wall_time_s: float
    load_time_s: float
    num_output_samples: int
    #: simulated-cluster projection (see :class:`~repro.distributed.runners.RunResult`)
    simulated_time_s: float = 0.0
    #: pool workers that served the point (empty for inline execution)
    worker_pids: list[int] = field(default_factory=list)


@dataclass
class ScalabilitySweep:
    """Run the same recipe across several node counts and back-ends.

    All points share the process-wide worker pools of :mod:`repro.parallel`
    (one persistent pool per distinct worker count): the sweep pays worker
    start-up and operator instantiation once per pool, not once per point,
    and the Ray-like and Beam-like back-ends reuse each other's pools.
    """

    process_list: list
    node_counts: list[int] = field(default_factory=lambda: [1, 2, 4])
    cores_per_node: int = 1

    def run(self, dataset: NestedDataset, backends: tuple[str, ...] = ("ray", "beam")) -> list[SweepPoint]:
        """Execute the sweep and return one :class:`SweepPoint` per (backend, nodes)."""
        points: list[SweepPoint] = []
        for backend in backends:
            for num_nodes in self.node_counts:
                spec = ClusterSpec(num_nodes=num_nodes, cores_per_node=self.cores_per_node)
                runner: RayLikeRunner
                if backend == "ray":
                    runner = RayLikeRunner(num_nodes=spec.total_workers)
                elif backend == "beam":
                    runner = BeamLikeRunner(num_nodes=spec.total_workers)
                else:
                    raise ValueError(f"unknown backend {backend!r}")
                result: RunResult = runner.run(dataset, self.process_list)
                points.append(
                    SweepPoint(
                        backend=backend,
                        num_nodes=num_nodes,
                        wall_time_s=result.wall_time_s,
                        load_time_s=result.load_time_s,
                        num_output_samples=len(result.dataset),
                        simulated_time_s=result.simulated_time_s,
                        worker_pids=list(result.worker_pids),
                    )
                )
        return points

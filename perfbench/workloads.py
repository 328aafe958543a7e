"""The benchmark's workloads: a scenario preset plus overrides, the number
of independent scenes (recordings) in one run, the SCT clustering mode and
the orientation classifier the CLI is given. Why each workload was chosen
is stated in ``BENCHMARK.json`` and the README.

A workload with several scenes is a batch of recordings, each tracked and
evaluated on its own. How hard a scene is to track (how often identities
fragment) is drawn once per scene, so two scenes spread less from seed to
seed than one.

This module is plain data so that every benchmark process (input
generator, measured process, orchestrator) agrees on one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field


SCENE_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    scenes: int = 1
    offline: bool = False
    mlp: bool = False

    def spec_overrides(self, seed: int, scene: int, scale: float = 1.0) -> dict:
        """Overrides for scene ``scene`` of the run seeded ``seed``;
        ``scale`` < 1 shortens the streams for smoke tests."""
        # The generator needs a non-negative seed.
        out = dict(self.overrides, seed=(seed % 2**32) * SCENE_SEED_STRIDE + scene)
        if scale != 1.0:
            out["frames"] = max(30, int(out["frames"] * scale))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crowd",
            preset="occlusion_heavy",
            overrides={"num_identities": 10, "frames": 700},
            scenes=2,
        ),
        Workload(
            name="handoff4",
            preset="two_camera_handoff",
            overrides={
                "num_cameras": 4,
                "world_w": 128.0,
                "world_h": 16.0,
                "camera_views": [
                    (0.0, 0.0, 26.0, 16.0),
                    (34.0, 0.0, 60.0, 16.0),
                    (68.0, 0.0, 94.0, 16.0),
                    (102.0, 0.0, 128.0, 16.0),
                ],
                "num_identities": 16,
                "frames": 900,
                "miss_rate": 0.05,
            },
            scenes=1,
            offline=True,
            mlp=True,
        ),
    )
}

"""The benchmark's workloads: synthetic ring scenes and the flags they run with.

Every scene is a ring of cameras around a building-like point set, with
0.5 px Gaussian noise and 2% outlying observations, generated by
``hsfm.synthetic.generate`` from the run's seed.  Only the pipeline options
listed here differ from the default ``PipelineConfig``.
"""

from dataclasses import dataclass

KIND = "ring"
NOISE_SIGMA = 0.5  # pixels
OUTLIER_RATE = 0.02


@dataclass(frozen=True)
class Workload:
    cameras: int
    points: int
    mode: str  # hsfm sam --mode
    match_flags: tuple = ()  # extra hsfm match flags


WORKLOADS = {
    # acceptance criterion 5's scene, candidate matches supplied
    "ring12-calib": Workload(12, 350, "calibrated"),
    # descriptor broad phase, autocalibrated: large BA problems, the
    # projective stereo path and the upgrade to a Euclidean frame
    "ring10-autocal-dense": Workload(10, 800, "autocalibrated", ("--broad-phase",)),
}

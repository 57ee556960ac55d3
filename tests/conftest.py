import os

import numpy as np
import pytest
from hypothesis import settings
from scipy import ndimage

# HYPOTHESIS_PROFILE=ci makes every fuzz run replayable from its log: the
# examples are derived from each test's name, and a failure prints its blob.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the release-gate checklist lines collected during the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "GATE_LINES", [])
    if lines:
        terminalreporter.section("release gate")
        for line in lines:
            terminalreporter.write_line(line)


def smooth_texture(h, w, seed, lo=20, hi=235, sigma=2.0):
    """Band-limited random texture: uniform noise blurred then rescaled.

    Blurring keeps the image interpolation-friendly so subpixel sampling in
    the flow tests behaves. A larger sigma gives coarser structure that stays
    correlated over larger displacements.
    """
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.uniform(0, 1, size=(h, w)), sigma=sigma)
    img = (img - img.min()) / (img.max() - img.min())
    return (lo + img * (hi - lo)).astype(np.uint8)


def filter_images():
    """Float64 images, as pytest params, for the vision filters: random integer
    and real values, smooth texture, flat frames, one-row and one-column
    frames, and the sizes where the flow pyramid stops (2 * window for the
    windows 21 and 35)."""
    rng = np.random.default_rng(31)
    cases = [
        ("uint8 180x240", rng.integers(0, 256, (180, 240)).astype(np.float64)),
        ("uint8 47x33", rng.integers(0, 256, (47, 33)).astype(np.float64)),
        ("real 90x120", rng.uniform(0.0, 255.0, (90, 120))),
        ("signed 31x29", rng.normal(0.0, 50.0, (31, 29))),
        ("texture 120x160", smooth_texture(120, 160, seed=3).astype(np.float64)),
        ("blurred 45x60", ndimage.gaussian_filter(rng.uniform(0, 255, (45, 60)), 1.0)),
        ("flat 40x50", np.full((40, 50), 137.0)),
        ("flat real 9x7", np.full((9, 7), 0.1)),
        ("row 1x64", rng.uniform(0.0, 255.0, (1, 64))),
        ("column 64x1", rng.uniform(0.0, 255.0, (64, 1))),
        ("pixel 1x1", np.array([[42.5]])),
        ("two rows 2x9", rng.integers(0, 256, (2, 9)).astype(np.float64)),
    ]
    for window in (21, 35):
        for h, w in ((2 * window, 2 * window + 30), (2 * window - 1, 100),
                     (2 * window + 1, 2 * window)):
            cases.append((f"stop {h}x{w}", rng.uniform(0.0, 255.0, (h, w))))
    return [pytest.param(img, id=name) for name, img in cases]


@pytest.fixture
def texture_frame():
    from cyclerisk.vision import GrayFrame

    return GrayFrame(smooth_texture(240, 320, seed=7))


@pytest.fixture(scope="session")
def e2e_workspace(tmp_path_factory):
    """Shared generated rides, trained models, and one analyzed output set.

    Built once per session because rendering, training and analysis make
    it the suite's costliest set-up. Tests must treat every path as
    read-only and write any derived output into their own tmp_path.
    """
    from cyclerisk import fileio
    from cyclerisk.cli import main
    from cyclerisk.risk import proximity_region_map, risk_descriptor
    from cyclerisk.synth import gen_risk_detections

    root = tmp_path_factory.mktemp("e2e")
    paths = {
        "root": root,
        "train_ride": root / "train_ride",
        "ride_bike": root / "ride_bike",
        "ride_mixed": root / "ride_mixed",
        "model": root / "model.cymd",
        "trainset": root / "trainset.cyts",
        "out_bike": root / "out_bike",
        "out_mixed": root / "out_mixed",
    }
    assert main(["--seed", "1", "gen-ride", "--out", str(paths["train_ride"]),
                 "--schedule", "walk:60,bike:60,motor:60"]) == 0
    assert main(["--seed", "11", "gen-ride", "--out", str(paths["ride_bike"]),
                 "--schedule", "bike:40", "--frames"]) == 0
    assert main(["--seed", "21", "gen-ride", "--out", str(paths["ride_mixed"]),
                 "--schedule", "walk:40,bike:40", "--frames"]) == 0
    assert main(["train-behavior", "--rides", str(paths["train_ride"]),
                 "--out", str(paths["model"])]) == 0

    rmap = proximity_region_map((240, 180))
    for level in (1, 2, 3):
        descs = []
        for s in range(30):
            dets = gen_risk_detections(rmap, level, seed=1000 * level + s,
                                       frame=s)
            descs.append(risk_descriptor(dets, rmap, frame=s))
        fileio.write_descriptors(root / f"level{level}.cydr", "proximity",
                                 descs)
        paths[f"level{level}"] = root / f"level{level}.cydr"
    assert main(["train-risk", f"1:{root}/level1.cydr", f"2:{root}/level2.cydr",
                 f"3:{root}/level3.cydr", "--out", str(paths["trainset"])]) == 0

    for ride, out in (("ride_bike", "out_bike"), ("ride_mixed", "out_mixed")):
        assert main(["--criterion", "proximity", "analyze", str(paths[ride]),
                     "--out", str(paths[out]), "--model", str(paths["model"]),
                     "--trainset", str(paths["trainset"])]) == 0
    return paths

"""Release gate: the twelve behaviors that block a release, one test each.

Every test appends one [PASS]/[FAIL] line to GATE_LINES and conftest echoes
the list after the run, so the gate reads as a checklist. Tolerances here
are contractual; loosening them is a release decision, not a test fix.
"""

import itertools
import json
import time

import numpy as np
import pytest

from cyclerisk import fileio
from cyclerisk.behavior import KernelSpec, loss, train_svm
from cyclerisk.behavior.features import extract_features, features_matrix
from cyclerisk.behavior.preprocess import make_windows, preprocess
from cyclerisk.behavior.rfe import consensus_select, ova_rankings
from cyclerisk.behavior.stream import SensorStream
from cyclerisk.behavior.svm import kernel_matrix, _smo
from cyclerisk.behavior.temporal import smooth_sequence, softmax
from cyclerisk.emd import (RiskTrainingSet, TrainingItem,
                           build_distance_matrix, classify_risk, emd)
from cyclerisk.foe import estimate_foe, refine_foe
from cyclerisk.risk import (Detection, RiskParams, lane_region_map,
                            proximity_region_map, risk_descriptor)
from cyclerisk.synth import gen_expansion_scene, gen_ride, gen_risk_detections
from cyclerisk.vision import CornerSet, GrayFrame, clahe, detect_corners, lk_flow
from emd_reference import lp_transport

GATE_LINES = []

DIMS = (480, 360)
CLASSES = ("car", "bus", "motorcycle", "bicycle", "person")


def gate(name, ok, detail):
    GATE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def unit_ls_focus(pts, vecs):
    """Plain unweighted least-squares line intersection (no robust loss)."""
    dirs = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
    offsets = (normals * pts).sum(axis=1)
    x, *_ = np.linalg.lstsq(normals, offsets, rcond=None)
    return x


def qp_oracle(K, y, C):
    """Exact dual minimum by enumerating every active-set face (n <= 8)."""
    n = y.size
    Q = K * np.outer(y, y)
    best = np.inf
    for states in itertools.product((0, 1, 2), repeat=n):
        st = np.array(states)
        a = np.where(st == 1, float(C), 0.0)
        F = np.nonzero(st == 2)[0]
        B = np.nonzero(st != 2)[0]
        if F.size:
            nb = F.size
            M = np.zeros((nb + 1, nb + 1))
            M[:nb, :nb] = Q[np.ix_(F, F)]
            M[:nb, nb] = y[F]
            M[nb, :nb] = y[F]
            rhs = np.empty(nb + 1)
            rhs[:nb] = 1.0 - (Q[np.ix_(F, B)] @ a[B] if B.size else 0.0)
            rhs[nb] = -(y[B] @ a[B]) if B.size else 0.0
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            aF = sol[:nb]
            if (aF < -1e-8).any() or (aF > C + 1e-8).any():
                continue
            a[F] = np.clip(aF, 0.0, C)
        if abs(y @ a) > 1e-6:
            continue
        best = min(best, float(0.5 * a @ Q @ a - a.sum()))
    return best


@pytest.fixture(scope="module")
def ride_suite():
    """30-minute three-mode ride with a 75/25 split and a linear model."""
    schedule = [("walk", 360), ("bike", 300), ("motor", 240), ("bike", 240),
                ("walk", 180), ("motor", 240), ("bike", 240)]
    assert sum(d for _, d in schedule) == 1800
    ride = gen_ride(schedule, seed=2024)
    _, windows = make_windows(preprocess(ride.stream))
    X = features_matrix(windows)
    y = ride.window_labels
    perm = np.random.default_rng(5).permutation(len(y))
    cut = int(round(0.75 * len(y)))
    tr, te = perm[:cut], perm[cut:]
    model = train_svm(X[tr], [y[i] for i in tr], C=1.0,
                      kernel=KernelSpec("linear"))
    return {"X": X, "y": y, "tr": tr, "te": te, "model": model}


def test_g01_clean_scene_focus_exact():
    errs, times = [], []
    rng = np.random.default_rng(77)
    for s in range(5):
        target = (float(rng.uniform(120, 360)), float(rng.uniform(90, 270)))
        scene = gen_expansion_scene(target, n=100, noise=0.0,
                                    outlier_frac=0.0, seed=s)
        t0 = time.perf_counter()
        est = refine_foe(scene.points, scene.vectors, np.ones(len(scene.points)))
        times.append(time.perf_counter() - t0)
        errs.append(float(np.linalg.norm(est.point - scene.foe)))
    ok = max(errs) <= 1e-3 and max(times) < 1.0
    gate("g01 clean-scene focus", ok,
         f"max err {max(errs):.2e} px (tol 1e-3), slowest {max(times)*1e3:.1f} ms")


def test_g02_contaminated_scene_beats_plain_ls():
    refined, wins = [], 0
    for s in range(100):
        target = (240.0 + 60 * np.sin(s), 180.0 + 45 * np.cos(2 * s))
        scene = gen_expansion_scene(target, n=100, noise=1.0,
                                    outlier_frac=0.3, seed=s)
        ones = np.ones(len(scene.points))
        e_ls = float(np.linalg.norm(unit_ls_focus(scene.points, scene.vectors) - scene.foe))
        e_rf = float(np.linalg.norm(
            refine_foe(scene.points, scene.vectors, ones).point - scene.foe))
        refined.append(e_rf)
        wins += e_rf < e_ls
    med = float(np.median(refined))
    ok = med <= 3.0 and wins >= 90
    gate("g02 contaminated-scene focus", ok,
         f"median refined {med:.2f} px (tol 3), beats plain LS {wins}/100 (need 90)")


def test_g03_robust_objective_beats_pixel_lattice():
    def huber_sum(res):   # the Huber objective at delta 1, unit weights
        return np.where(res <= 1.0, 0.5 * res * res, res - 0.5).sum(axis=-1)

    worst = -np.inf
    for s in range(20):
        rng = np.random.default_rng(300 + s)
        target = (float(rng.uniform(100, 380)), float(rng.uniform(80, 280)))
        scene = gen_expansion_scene(target, n=100, noise=1.0,
                                    outlier_frac=0.3, seed=300 + s)
        est = estimate_foe(scene.points, scene.vectors, np.ones(len(scene.points)))
        dirs = scene.vectors / np.linalg.norm(scene.vectors, axis=1)[:, None]
        normals = np.column_stack((-dirs[:, 1], dirs[:, 0]))
        offsets = (normals * scene.points).sum(axis=1)
        best = np.inf
        xs = np.arange(0.0, DIMS[0] + 1.0)
        for yv in np.arange(0.0, DIMS[1] + 1.0):
            res = np.abs(xs[:, None] * normals[:, 0] + yv * normals[:, 1]
                         - offsets)
            best = min(best, float(huber_sum(res).min()))
        ours = float(huber_sum(np.abs(normals @ est.point - offsets)))
        worst = max(worst, ours - best)
    ok = worst <= 1e-6
    gate("g03 robust objective vs 1-px lattice", ok,
         f"worst objective excess {worst:.2e} (tol 1e-6)")


def test_g04_transport_distance_matches_dense_lp():
    maps = {"lane": build_distance_matrix(lane_region_map((240.0, 180.0), DIMS)),
            "proximity": build_distance_matrix(proximity_region_map(DIMS))}
    rng = np.random.default_rng(404)
    worst = 0.0
    solve_time = 0.0
    pairs = 0
    for name, D in maps.items():
        made = 0
        while made < 100:
            a = rng.uniform(0, 1, 25) * (rng.uniform(0, 1, 25) > 0.3)
            b = rng.uniform(0, 1, 25) * (rng.uniform(0, 1, 25) > 0.3)
            if a.sum() == 0.0 or b.sum() == 0.0:
                continue
            made += 1
            pairs += 1
            t0 = time.perf_counter()
            ours = emd(a, b, D)
            solve_time += time.perf_counter() - t0
            worst = max(worst, abs(ours - lp_transport(a, b, D)))
            assert emd(b, a, D) == ours  # bit-exact under argument swap
            assert emd(a, a, D) == 0.0
    mean_ms = 1e3 * solve_time / pairs
    ok = worst <= 1e-6 and mean_ms < 10.0
    gate("g04 transport distance vs dense LP", ok,
         f"{pairs} pairs, worst gap {worst:.2e} (tol 1e-6), "
         f"mean {mean_ms:.2f} ms/pair (cap 10), swap/self exact")


def test_g05_risk_retrieval_separates_levels():
    details = []
    ok = True
    for crit, rmap in (("lane", lane_region_map((240.0, 180.0), DIMS)),
                       ("proximity", proximity_region_map(DIMS))):
        D = build_distance_matrix(rmap)
        by_level = {}
        base = 0 if crit == "lane" else 50_000
        for level in (1, 2, 3):
            descs = []
            for i in range(100):
                dets = gen_risk_detections(rmap, level,
                                           seed=base + 1000 * level + i,
                                           frame=i)
                descs.append(risk_descriptor(dets, rmap, frame=i).values)
            by_level[level] = descs
        train = RiskTrainingSet(criterion=crit, items=[
            TrainingItem(values=v, level=lv)
            for lv in (1, 2, 3) for v in by_level[lv][:75]])
        hits = {1: 0, 2: 0, 3: 0}
        extreme_mix = 0
        for lv in (1, 2, 3):
            for v in by_level[lv][75:]:
                got = classify_risk(v, train, D).level
                hits[lv] += got == lv
                extreme_mix += (lv == 1 and got == 3) or (lv == 3 and got == 1)
        accs = {lv: hits[lv] / 25.0 for lv in (1, 2, 3)}
        ok &= extreme_mix == 0 and all(a >= 0.85 for a in accs.values())
        details.append(f"{crit} acc " +
                       "/".join(f"{accs[lv]:.2f}" for lv in (1, 2, 3)) +
                       f" extremes-swapped {extreme_mix}")
    gate("g05 risk retrieval separation", ok,
         "; ".join(details) + " (need >=0.85 each, 0 swaps)")


def test_g06_descriptor_algebra_randomized():
    rng = np.random.default_rng(606)
    checked = 0
    for crit, rmap in (("lane", lane_region_map((240.0, 180.0), DIMS)),
                       ("proximity", proximity_region_map(DIMS))):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            dets = [Detection(0, CLASSES[int(rng.integers(0, 5))],
                              float(rng.uniform(0.1, 1.0)),
                              (float(rng.uniform(0, DIMS[0] - 40)),
                               float(rng.uniform(0, DIMS[1] - 30)),
                               float(rng.uniform(5, 80)),
                               float(rng.uniform(5, 90))))
                    for _ in range(n)]
            cut = n // 2
            da = risk_descriptor(dets[:cut], rmap).values
            db = risk_descriptor(dets[cut:], rmap).values
            dall = risk_descriptor(dets, rmap).values
            assert np.allclose(dall, da + db, atol=1e-9)

            k = int(rng.integers(0, n))
            shrunk = list(dets)
            u = float(rng.uniform(0.1, 0.9))
            d0 = dets[k]
            shrunk[k] = Detection(0, d0.label, d0.score * u, d0.bbox)
            dlow = risk_descriptor(shrunk, rmap).values
            assert (dlow <= dall + 1e-12).all()
            # strict drop requires the scaled detection to carry mass at all
            # (a footprint clamped fully off-frame legitimately adds zero)
            if risk_descriptor([d0], rmap).values.sum() > 0.0:
                assert dlow.sum() < dall.sum()

            base_cells = np.concatenate([[0.0], rng.uniform(0.05, 1.0, 25)])
            bump = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 25)])
            lo = risk_descriptor(dets, rmap,
                                 RiskParams(cell_coeffs=base_cells)).values
            hi = risk_descriptor(dets, rmap,
                                 RiskParams(cell_coeffs=base_cells + bump)).values
            assert (hi >= lo - 1e-12).all()
            occupied = lo > 0.0
            if (occupied & (bump[1:] > 0.0)).any():
                assert hi.sum() > lo.sum()
            checked += 1
    gate("g06 descriptor algebra", checked == 1000,
         f"additivity + score and placement-coefficient monotonicity on "
         f"{checked} random detection sets")


def test_g07_svm_dual_matches_qp_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(4, 9))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        if np.abs(y.sum()) == n:  # force both classes
            y[0] = -y[0]
        C = float(rng.choice([0.5, 1.0, 10.0]))
        K = kernel_matrix(KernelSpec("linear"), X, X)
        alpha, *_ = _smo(K, y, C)
        Q = K * np.outer(y, y)
        ours = float(0.5 * alpha @ Q @ alpha - alpha.sum())
        worst = max(worst, abs(ours - qp_oracle(K, y, C)))

    blobs = np.vstack([rng.normal((-4, -4), 0.4, size=(20, 2)),
                       rng.normal((4, 4), 0.4, size=(20, 2))])
    labels = ["a"] * 20 + ["b"] * 20
    model = train_svm(blobs, labels, C=1.0, kernel=KernelSpec("linear"))
    sep_loss = loss(model, blobs, labels)
    ok = worst <= 1e-4 and sep_loss == 0.0
    gate("g07 svm dual optimality", ok,
         f"worst dual gap {worst:.2e} (tol 1e-4), separable loss {sep_loss}")


def test_g08_mode_model_loss_and_top8(ride_suite):
    X, y = ride_suite["X"], ride_suite["y"]
    tr, te = ride_suite["tr"], ride_suite["te"]
    Xte = X[te]
    yte = [y[i] for i in te]
    l54 = loss(ride_suite["model"], Xte, yte)
    ytr = [y[i] for i in tr]
    mask = consensus_select(ova_rankings(X[tr], ytr, C=1.0), 8)
    m8 = train_svm(X[tr], ytr, C=1.0, kernel=KernelSpec("linear"),
                   feature_mask=mask)
    l8 = loss(m8, Xte, yte)
    ok = l54 <= 0.05 and l8 <= 0.10 and l8 >= l54
    gate("g08 mode model loss", ok,
         f"all-54 loss {l54:.4f} (cap 0.05), top-8 loss {l8:.4f} "
         f"(cap 0.10, must not beat all-54)")


def test_g09_smoothing_never_hurts_under_noise(ride_suite):
    X, y, model = ride_suite["X"], ride_suite["y"], ride_suite["model"]
    yidx = np.array([model.classes.index(lab) for lab in y])
    probs = softmax(model.decision_values(X))
    Xs = (X[:, model.feature_mask] - model.mu) / model.scale
    results = []
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        noisy = probs.copy()
        hit = rng.choice(len(y), size=int(round(0.10 * len(y))), replace=False)
        for i in hit:
            wrong = (int(noisy[i].argmax()) + 1
                     + int(rng.integers(0, len(model.classes) - 1))) \
                % len(model.classes)
            noisy[i] = 0.0
            noisy[i, wrong] = 1.0
        raw_acc = float((noisy.argmax(axis=1) == yidx).mean())
        sm = smooth_sequence(Xs, noisy, bandwidth=model.smoother_bandwidth)
        sm_acc = float((sm == yidx).mean())
        ok &= sm_acc >= raw_acc
        results.append(f"{raw_acc:.3f}->{sm_acc:.3f}")
    gate("g09 smoothing under label noise", ok,
         "accuracy per seed " + ", ".join(results) + " (never lower)")


def test_g10_feature_schema_and_window_count():
    rng = np.random.default_rng(1010)
    n = 100
    t = np.arange(n) / 10.0

    def stream(m):
        cols = {c: rng.normal(size=m) for c in
                ("ax", "ay", "az", "gx", "gy", "gz")}
        return SensorStream(t=np.arange(m) / 10.0, speed=np.abs(rng.normal(size=m)),
                            lat=np.full(m, 41.0), lon=np.full(m, -8.0),
                            acc=np.full(m, 5.0), **cols)

    feats = extract_features(make_windows(stream(n))[1][0])
    schema_ok = feats.shape == (54,) and np.isfinite(feats).all()
    counts_ok = True
    counted = []
    for m in (100, 150, 250, 1000):
        got = len(make_windows(stream(m))[1])
        want = (m - 100) // 50 + 1
        counts_ok &= got == want
        counted.append(f"N={m}:{got}")
    gate("g10 feature schema", schema_ok and counts_ok,
         f"54 finite features; window counts {', '.join(counted)}")


def test_g11_vision_stack():
    n_waves = 40

    def wave_pair(seed, t, h=240, w=320):
        rng = np.random.default_rng(seed)
        lam = np.exp(rng.uniform(np.log(8.0), np.log(40.0), n_waves))
        ang = rng.uniform(0, 2 * np.pi, n_waves)
        kx = 2 * np.pi / lam * np.cos(ang)
        ky = 2 * np.pi / lam * np.sin(ang)
        ph = rng.uniform(0, 2 * np.pi, n_waves)
        amp = rng.uniform(0.5, 1.0, n_waves)
        Y, Xg = np.mgrid[0:h, 0:w].astype(float)
        scale = 3.5 * np.sqrt(0.5 * (amp ** 2).sum())

        def render(xs, ys):
            acc = np.zeros_like(xs)
            for i in range(n_waves):
                acc += amp[i] * np.sin(kx[i] * xs + ky[i] * ys + ph[i])
            return np.clip(128 + 127 * acc / scale, 0, 255).astype(np.uint8)

        return GrayFrame(render(Xg, Y)), GrayFrame(render(Xg - t[0], Y - t[1]))

    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(1100 + seed)
        r = rng.uniform(0.5, 3.0)
        th = rng.uniform(0, 2 * np.pi)
        t = np.array([r * np.cos(th), r * np.sin(th)])
        prev, nxt = wave_pair(1100 + seed, t)
        corners = detect_corners(prev)
        margin = 35 // 2 + 7
        inside = ((corners.points[:, 0] > margin)
                  & (corners.points[:, 0] < 320 - 1 - margin)
                  & (corners.points[:, 1] > margin)
                  & (corners.points[:, 1] < 240 - 1 - margin))
        sub = CornerSet(corners.points[inside], corners.response[inside])
        assert len(sub) >= 20
        flow = lk_flow(prev, nxt, sub)
        err = np.linalg.norm(flow.vectors - t, axis=1)
        ratios.append(float((flow.tracked & (err <= 0.25)).sum() / len(sub)))
    track_ok = min(ratios) >= 0.9

    const = GrayFrame(np.full((180, 240), 137, dtype=np.uint8))
    once = clahe(const)
    flat_ok = (np.array_equal(once.data, const.data)
               and np.array_equal(clahe(once).data, once.data))

    gate("g11 vision stack", track_ok and flat_ok,
         f"subpixel shift recovery min {min(ratios):.2f} of corners within "
         f"0.25 px (need 0.90); flat-frame equalization is identity")


def test_g11b_codecs_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(1111)
    clean = []

    img = rng.integers(0, 256, size=(90, 120), dtype=np.uint8)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    fileio.write_pgm(p1, img)
    fileio.write_pgm(p2, fileio.read_pgm(p1))
    clean.append(("pgm", p1.read_bytes() == p2.read_bytes()))

    n = 40
    stream = SensorStream(
        t=np.arange(n) / 10.0,
        ax=rng.normal(size=n), ay=rng.normal(size=n), az=rng.normal(size=n),
        gx=rng.normal(size=n), gy=rng.normal(size=n), gz=rng.normal(size=n),
        speed=np.abs(rng.normal(size=n)), lat=41.0 + rng.normal(size=n) * 1e-4,
        lon=-8.0 + rng.normal(size=n) * 1e-4, acc=np.full(n, 4.5))
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_sensor_csv(c1, stream)
    fileio.write_sensor_csv(c2, fileio.read_sensor_csv(c1))
    clean.append(("sensor-csv", c1.read_bytes() == c2.read_bytes()))

    dets = [Detection(int(i), CLASSES[int(rng.integers(0, 5))],
                      float(rng.uniform(0.1, 1.0)),
                      (float(rng.uniform(0, 400)), float(rng.uniform(0, 300)),
                       float(rng.uniform(5, 60)), float(rng.uniform(5, 60))))
            for i in range(12)]
    d1, d2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    fileio.write_detections(d1, dets)
    fileio.write_detections(d2, fileio.read_detections(d1))
    clean.append(("detections", d1.read_bytes() == d2.read_bytes()))

    rmap = proximity_region_map((240, 180))
    descs = [risk_descriptor(gen_risk_detections(rmap, lv, seed=lv, frame=lv),
                             rmap, frame=lv) for lv in (1, 2, 3)]
    r1, r2 = tmp_path / "a.cydr", tmp_path / "b.cydr"
    fileio.write_descriptors(r1, "proximity", descs)
    fileio.write_descriptors(r2, *fileio.read_descriptors(r1))
    clean.append(("descriptors", r1.read_bytes() == r2.read_bytes()))

    train = RiskTrainingSet(criterion="proximity", items=[
        TrainingItem(values=d.values, level=lv)
        for lv, d in zip((1, 2, 3), descs)])
    t1, t2 = tmp_path / "a.cyts", tmp_path / "b.cyts"
    fileio.write_training_set(t1, train)
    fileio.write_training_set(t2, fileio.read_training_set(t1))
    clean.append(("training-set", t1.read_bytes() == t2.read_bytes()))

    blobs = np.vstack([rng.normal((-3, -3), 0.5, size=(10, 2)),
                       rng.normal((3, 3), 0.5, size=(10, 2))])
    model = train_svm(blobs, ["a"] * 10 + ["b"] * 10, C=1.0,
                      kernel=KernelSpec("gaussian", bandwidth=2.0))
    m1, m2 = tmp_path / "a.cymd", tmp_path / "b.cymd"
    fileio.write_model(m1, model)
    fileio.write_model(m2, fileio.read_model(m1))
    clean.append(("model", m1.read_bytes() == m2.read_bytes()))

    segments = [{"mode": "bike", "start_t": 0.0, "end_t": 30.0,
                 "risk": {1: 5, 2: 2, 3: 1},
                 "coords": [(-8.61, 41.15), (-8.60, 41.16)]},
                {"mode": "walk", "start_t": 30.0, "end_t": 45.0,
                 "risk": {}, "coords": [(-8.60, 41.16), (-8.59, 41.16)]}]
    g1, g2 = tmp_path / "a.geojson", tmp_path / "b.geojson"
    fileio.write_report_geojson(g1, segments)
    doc = json.loads(g1.read_text(encoding="utf-8"))
    back = [{"mode": f["properties"]["mode"],
             "start_t": f["properties"]["start_t"],
             "end_t": f["properties"]["end_t"],
             "risk": {int(k): v for k, v in f["properties"]["risk"].items()},
             "coords": [tuple(c) for c in f["geometry"]["coordinates"]]}
            for f in doc["features"]]
    fileio.write_report_geojson(g2, back)
    clean.append(("geojson", g1.read_bytes() == g2.read_bytes()))

    labels = [(0, "walk"), (50, "bike"), (100, "bike")]
    w1, w2 = tmp_path / "a.labels", tmp_path / "b.labels"
    fileio.write_window_labels(w1, labels)
    fileio.write_window_labels(w2, fileio.read_window_labels(w1))
    clean.append(("window-labels", w1.read_bytes() == w2.read_bytes()))

    bad = [name for name, ok in clean if not ok]
    gate("g11b codec round trips", not bad,
         f"{len(clean)} formats byte-exact" +
         (f"; FAILED: {bad}" if bad else ""))


def test_g12_end_to_end_deterministic_and_fast(tmp_path):
    from cyclerisk.cli import main

    t0 = time.perf_counter()
    train_ride = tmp_path / "train_ride"
    ride = tmp_path / "ride"
    assert main(["--seed", "1", "gen-ride", "--out", str(train_ride),
                 "--schedule", "walk:60,bike:60,motor:60"]) == 0
    assert main(["--seed", "11", "gen-ride", "--out", str(ride),
                 "--schedule", "bike:40", "--frames"]) == 0
    assert main(["train-behavior", "--rides", str(train_ride),
                 "--out", str(tmp_path / "model.cymd")]) == 0

    rmap = proximity_region_map((240, 180))
    for level in (1, 2, 3):
        descs = [risk_descriptor(
            gen_risk_detections(rmap, level, seed=1000 * level + s, frame=s),
            rmap, frame=s) for s in range(30)]
        fileio.write_descriptors(tmp_path / f"level{level}.cydr", "proximity",
                                 descs)
    assert main(["train-risk",
                 f"1:{tmp_path}/level1.cydr", f"2:{tmp_path}/level2.cydr",
                 f"3:{tmp_path}/level3.cydr",
                 "--out", str(tmp_path / "train.cyts")]) == 0

    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["--criterion", "proximity", "analyze", str(ride),
                     "--out", str(out), "--model", str(tmp_path / "model.cymd"),
                     "--trainset", str(tmp_path / "train.cyts")]) == 0
        outs.append(out)
    elapsed = time.perf_counter() - t0

    names = ("descriptors.cydr", "frames.ndjson", "windows.ndjson",
             "report.geojson")
    same = [(outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
            for n in names]
    rep = json.loads((outs[0] / "report.geojson").read_text())
    ok = all(same) and elapsed < 120.0 and rep["features"]
    gate("g12 end-to-end", ok,
         f"repeat analysis byte-identical on {sum(same)}/4 outputs, "
         f"full chain {elapsed:.1f} s (cap 120)")

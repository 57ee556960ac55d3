"""Config round-tripping, strict unknown-key rejection, overrides."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from cyclerisk.config import (INT_MAX, BehaviorConfig, EmdConfig, FoeConfig,
                             PipelineConfig, RiskConfig, VisionConfig, apply_overrides,
                             load_config)
from cyclerisk.errors import ConfigError


def formats_key_table():
    """The keys of the docs/formats.md config key table, in table order."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    return re.findall(r"^\| `([\w.]+)` \|", text.split("## Config file", 1)[1],
                      flags=re.M)


class TestDefaults:
    def test_default_values(self):
        cfg = PipelineConfig()
        assert cfg.vision.clahe_grid == (4, 4)
        assert cfg.vision.clahe_clip == 0.03
        assert cfg.vision.lk_window == 35
        assert cfg.vision.frame_stride == 5
        assert cfg.foe.delta == 1.0
        assert cfg.foe.min_flows == 8
        assert cfg.foe.ring_radii == (0.15, 0.30, 0.50)
        assert cfg.risk.footprint_frac == 0.2
        assert cfg.emd.cross_factor == 2.0
        assert cfg.emd.k == 5
        assert cfg.behavior.kernel == "linear"
        assert cfg.seed == 0

    def test_settable_keys(self):
        # every settable value; a new one must be added here and in
        # docs/formats.md ("Config file")
        def flat(d, prefix=""):
            for k, v in d.items():
                if isinstance(v, dict):
                    yield from flat(v, f"{prefix}{k}.")
                else:
                    yield prefix + k

        keys = sorted(flat(PipelineConfig().to_dict()))
        assert keys == sorted(formats_key_table())
        assert keys == [
            "behavior.C", "behavior.bandwidth", "behavior.kernel",
            "behavior.smooth_decay", "behavior.smooth_window",
            "emd.cross_factor", "emd.k",
            "foe.angle_thresh", "foe.delta", "foe.max_refine_iters",
            "foe.min_flows", "foe.ring_radii", "foe.smooth_decay",
            "foe.smooth_window", "foe.tol",
            "risk.footprint_frac", "risk.footprint_min_px",
            "seed",
            "vision.clahe_clip", "vision.clahe_grid", "vision.corner_grid",
            "vision.corner_max_per_cell", "vision.corner_quality",
            "vision.frame_stride", "vision.lk_levels", "vision.lk_window",
        ]

    def test_round_trip_idempotent(self):
        cfg = PipelineConfig()
        d1 = cfg.to_dict()
        cfg2 = PipelineConfig.from_dict(d1)
        assert cfg2.to_dict() == d1
        # and once more through JSON text
        d2 = PipelineConfig.from_dict(json.loads(json.dumps(d1))).to_dict()
        assert d2 == d1


class TestFromDict:
    def test_partial_sections(self):
        cfg = PipelineConfig.from_dict({"vision": {"lk_window": 21},
                                        "seed": 9})
        assert cfg.vision.lk_window == 21
        assert cfg.vision.clahe_clip == 0.03
        assert cfg.seed == 9

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig.from_dict({"visions": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="lk_windw"):
            PipelineConfig.from_dict({"vision": {"lk_windw": 21}})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"behavior": {"kernel": "cubic"}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"vision": {"lk_window": 4}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"foe": {"ring_radii": [0.5, 0.3, 0.2]}})
        for factor in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="cross_factor"):
                PipelineConfig.from_dict({"emd": {"cross_factor": factor}})
        nan, inf = float("nan"), float("inf")
        for section, key in (("foe", "delta"), ("foe", "tol"),
                             ("foe", "smooth_decay"), ("behavior", "C"),
                             ("behavior", "smooth_decay"),
                             ("behavior", "bandwidth"),
                             ("risk", "footprint_min_px")):
            for bad in (nan, inf):
                with pytest.raises(ConfigError, match=key):
                    PipelineConfig.from_dict({section: {key: bad}})
        with pytest.raises(ConfigError, match="ring_radii"):
            PipelineConfig.from_dict({"foe": {"ring_radii": [0.1, 0.2, inf]}})
        for key in ("clahe_grid", "corner_grid"):
            for grid in ([1.5, 2], [2, 2.5], [True, 2], [2, 2, 2], [0, 2]):
                with pytest.raises(ConfigError, match=key):
                    PipelineConfig.from_dict({"vision": {key: grid}})

    @pytest.mark.parametrize("section, key, bad", [
        (VisionConfig, "lk_window", 4), (FoeConfig, "min_flows", 2),
        (RiskConfig, "footprint_frac", 0.0), (EmdConfig, "k", 0),
        (BehaviorConfig, "kernel", "cubic"),
        # The stages keep no settings of their own: clahe, detect_corners
        # and lk_flow read VisionConfig, magnitude_weights and FoeSmoother
        # FoeConfig, classify_risk EmdConfig, smooth_sequence BehaviorConfig.
        # Each value below is one a stage used to refuse itself; those marked
        # "drift" are ones its own weaker check let through.
        (VisionConfig, "clahe_grid", (0, 4)), (VisionConfig, "clahe_clip", 0.0),
        (VisionConfig, "clahe_clip", -0.5), (VisionConfig, "clahe_clip", 1.5),
        (VisionConfig, "corner_max_per_cell", 0),
        (VisionConfig, "corner_max_per_cell", 2.5),           # drift
        (VisionConfig, "corner_quality", 0.0), (VisionConfig, "corner_quality", 1.5),
        (VisionConfig, "corner_grid", (0, 4)),
        (VisionConfig, "corner_grid", (2.5, 2)),              # drift
        (VisionConfig, "lk_window", 1), (VisionConfig, "lk_levels", 0),
        (FoeConfig, "ring_radii", (0.3, 0.15, 0.5)),
        (FoeConfig, "ring_radii", (0.0, 0.15, 0.5)),
        (FoeConfig, "ring_radii", (0.15, 0.15, 0.5)),         # drift
        (FoeConfig, "smooth_window", -1),
        (FoeConfig, "smooth_window", 0),                      # drift
        (FoeConfig, "smooth_decay", -0.1),
        (FoeConfig, "smooth_decay", float("nan")),            # drift
        (BehaviorConfig, "smooth_window", 0),
        (BehaviorConfig, "smooth_decay", -0.1),
        (BehaviorConfig, "smooth_decay", float("nan")),       # drift
        (BehaviorConfig, "smooth_decay", float("inf")),       # drift
        (BehaviorConfig, "bandwidth", 0.0),
        (BehaviorConfig, "bandwidth", float("nan")),          # drift
        # from_dict took int(seed), and numpy refused a negative one
        (PipelineConfig, "seed", 5.5), (PipelineConfig, "seed", "7"),
        (PipelineConfig, "seed", -1),
    ])
    def test_section_checked_on_construction_and_frozen(self, section, key, bad):
        # a section object is valid wherever it exists: library code that
        # builds one gets the bounds of a config file, and nothing can
        # change a value afterwards
        with pytest.raises(ConfigError, match=key):
            section(**{key: bad})
        sec = section()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sec, key, bad)
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1

    def test_lists_become_tuples(self):
        cfg = PipelineConfig.from_dict({"foe": {"ring_radii": [0.1, 0.2, 0.4]}})
        assert cfg.foe.ring_radii == (0.1, 0.2, 0.4)


class TestFile:
    def test_load(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"risk": {"footprint_frac": 0.4}}))
        cfg = load_config(p)
        assert cfg.risk.footprint_frac == 0.4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("data", [
        {"jobs": 1}, {"behavior": {"window": 100}}, {"behavior": {"rfe_top": 8}}])
    def test_unknown_keys_in_file_rejected(self, tmp_path, data):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unknown"):
            load_config(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text("{bad")
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ConfigError, match="UTF-8"):
            load_config(p)


class TestOverrides:
    def test_dotted_assignments(self):
        cfg = apply_overrides(PipelineConfig(),
                              ["vision.lk_window=21", "emd.k=3", "seed=4",
                               "behavior.kernel=gaussian"])
        assert cfg.vision.lk_window == 21
        assert cfg.emd.k == 3
        assert cfg.seed == 4
        assert cfg.behavior.kernel == "gaussian"

    def test_json_values(self):
        cfg = apply_overrides(PipelineConfig(),
                              ["foe.ring_radii=[0.1,0.2,0.3]",
                               "behavior.bandwidth=null"])
        assert cfg.foe.ring_radii == (0.1, 0.2, 0.3)
        assert cfg.behavior.bandwidth is None

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), ["nope.k=1"])
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), ["vision.lk_window"])

    def test_override_still_validates(self):
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), ["behavior.C=-1"])

    @pytest.mark.parametrize("key", [
        "vision.corner_max_per_cell", "vision.lk_window", "vision.lk_levels",
        "vision.frame_stride", "foe.max_refine_iters", "foe.min_flows",
        "foe.smooth_window", "emd.k", "behavior.smooth_window", "seed"])
    @pytest.mark.parametrize("value", ["5.0", "true", '"7"'])
    def test_integer_keys_need_integers(self, key, value):
        with pytest.raises(ConfigError, match="integer"):
            apply_overrides(PipelineConfig(), [f"{key}={value}"])

    @pytest.mark.parametrize("key", [
        "vision.corner_max_per_cell", "vision.lk_window", "vision.lk_levels",
        "vision.frame_stride", "foe.max_refine_iters", "foe.min_flows",
        "foe.smooth_window", "emd.k", "behavior.smooth_window", "seed",
        "vision.clahe_grid", "vision.corner_grid"])
    def test_integers_capped_at_int_max(self, key):
        def setting(v):
            return f"{key}={[1, v] if key.endswith('grid') else v}"
        apply_overrides(PipelineConfig(), [setting(INT_MAX)])
        for too_big in (INT_MAX + 1, 10**400):
            with pytest.raises(ConfigError, match=f"{key.split('.')[-1]} must be"):
                apply_overrides(PipelineConfig(), [setting(too_big)])

"""Tests for campaign specs: validation, serialization, expansion."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import (
    EXACT_ENGINES,
    CampaignSpec,
    MachineSpec,
    TraceFileTarget,
    WorkloadTarget,
    cell_id,
)
from repro.core.estimators import ESTIMATORS
from repro.workloads import WORKLOAD_NAMES


def small_spec(**overrides):
    defaults = dict(
        name="demo",
        targets=(WorkloadTarget("mcf"), WorkloadTarget("swim")),
        machines=(MachineSpec(scale=32),),
        engines=("batch", "shards"),
        seeds=(0, 1),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            WorkloadTarget("gcc")

    def test_unknown_engine_rejected(self):
        # The per-access range-list and naive stacks are test
        # references, not campaign engines.
        for engine in ("quantum", "rangelist", "naive"):
            with pytest.raises(ValueError, match="unknown engine"):
                small_spec(engines=(engine,))
        with pytest.raises(ValueError, match="unknown engine"):
            CampaignSpec.from_dict({
                "name": "old", "targets": [{"kind": "workload", "name": "mcf"}],
                "engines": ["rangelist"],
            })

    def test_default_engine_is_batch(self):
        spec = CampaignSpec.from_dict({
            "name": "t", "targets": [{"kind": "workload", "name": "mcf"}],
        })
        assert spec.engines == ("batch",)

    def test_estimator_engines_accepted(self):
        spec = small_spec(engines=tuple(sorted(ESTIMATORS)))
        assert set(spec.engines) == set(ESTIMATORS)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be unique"):
            small_spec(seeds=(1, 1))

    def test_empty_axes_rejected(self):
        for field in ("targets", "machines", "engines", "seeds"):
            with pytest.raises(ValueError):
                small_spec(**{field: ()})

    def test_bad_sampling_rate_rejected(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            small_spec(sampling_rate=1.5)

    def test_trace_target_needs_path(self):
        with pytest.raises(ValueError, match="path"):
            TraceFileTarget(path="")


class TestSerialization:
    def test_legacy_engine_key_ignored(self):
        """Specs written while the engine was a per-machine knob still
        load; the key no longer changes the machine or the cell id."""
        legacy = MachineSpec.from_dict({"scale": 32, "sim_engine": "batch"})
        assert legacy == MachineSpec(scale=32)
        assert legacy.to_dict() == {"scale": 32}

    def test_dict_round_trip(self):
        spec = small_spec(
            targets=(
                WorkloadTarget("mcf"),
                TraceFileTarget("capture.txt", events=("mem-loads",),
                                split_pids=False),
            ),
            log_entries=500,
            sampling_rate=0.25,
            measure_real=True,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert CampaignSpec.from_json_file(str(path)) == spec

    def test_json_file_resolves_relative_trace_paths(self, tmp_path):
        (tmp_path / "capture.txt").write_text(
            "app 1 1.0: mem-loads: ff00\n"
        )
        payload = {
            "name": "t",
            "targets": [{"kind": "trace", "path": "capture.txt"}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = CampaignSpec.from_json_file(str(path))
        target = spec.targets[0]
        assert target.path == str(tmp_path / "capture.txt")
        # The label keeps the original (human) stem, not the long path.
        assert target.label == "capture"

    def test_bad_json_reports_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            CampaignSpec.from_json_file(str(path))

    @settings(max_examples=50, deadline=None)
    @given(
        name=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=12,
        ),
        workloads=st.lists(
            st.sampled_from(sorted(WORKLOAD_NAMES)),
            min_size=1, max_size=4, unique=True,
        ),
        scales=st.lists(
            st.integers(min_value=1, max_value=64),
            min_size=1, max_size=3, unique=True,
        ),
        engines=st.lists(
            st.sampled_from(sorted(set(EXACT_ENGINES) | set(ESTIMATORS))),
            min_size=1, max_size=4, unique=True,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1, max_size=4, unique=True,
        ),
        log_entries=st.one_of(
            st.none(), st.integers(min_value=1, max_value=100_000)
        ),
        sampling_rate=st.one_of(
            st.none(),
            st.floats(min_value=0.01, max_value=1.0,
                      allow_nan=False, allow_infinity=False),
        ),
        measure_real=st.booleans(),
    )
    def test_round_trip_property(self, name, workloads, scales, engines,
                                 seeds, log_entries, sampling_rate,
                                 measure_real):
        spec = CampaignSpec(
            name=name,
            targets=tuple(WorkloadTarget(w) for w in workloads),
            machines=tuple(MachineSpec(scale=s) for s in scales),
            engines=tuple(engines),
            seeds=tuple(seeds),
            log_entries=log_entries,
            sampling_rate=sampling_rate,
            measure_real=measure_real,
        )
        rebuilt = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec


class TestExpansion:
    def test_workload_matrix_size(self):
        spec = small_spec()
        cells = spec.expand()
        assert len(cells) == spec.size == 2 * 1 * 2 * 2
        assert len({cell["id"] for cell in cells}) == len(cells)

    def test_cell_ids_are_filesystem_safe(self):
        for cell in small_spec().expand():
            assert "/" not in cell["id"]
            assert " " not in cell["id"]

    def test_trace_target_splits_per_pid(self, tmp_path):
        capture = tmp_path / "capture.txt"
        capture.write_text(
            "a 11 1.0: mem-loads: ff00\n"
            "b 22 1.1: mem-loads: ff80\n"
            "a 11 1.2: mem-loads: ff00\n"
        )
        spec = small_spec(
            targets=(TraceFileTarget(str(capture)),),
            engines=("batch",), seeds=(0,),
        )
        cells = spec.expand()
        assert len(cells) == 2
        assert sorted(cell["target"]["pid"] for cell in cells) == [11, 22]
        labels = sorted(cell["label"] for cell in cells)
        assert labels == ["capture-pid11", "capture-pid22"]

    def test_trace_target_no_split(self, tmp_path):
        capture = tmp_path / "capture.txt"
        capture.write_text("a 11 1.0: mem-loads: ff00\n")
        spec = small_spec(
            targets=(TraceFileTarget(str(capture), split_pids=False),),
            engines=("batch",), seeds=(0,),
        )
        cells = spec.expand()
        assert len(cells) == 1
        assert cells[0]["target"]["pid"] is None

    def test_empty_capture_rejected_at_expansion(self, tmp_path):
        capture = tmp_path / "capture.txt"
        capture.write_text("# nothing parseable\ngarbage\n")
        spec = small_spec(targets=(TraceFileTarget(str(capture)),))
        with pytest.raises(ValueError, match="no parseable samples"):
            spec.expand()

    def test_cell_id_deterministic(self):
        machine = MachineSpec(scale=32)
        assert (cell_id("mcf", machine, "batch", 3)
                == cell_id("mcf", machine, "batch", 3)
                == "mcf__s32__batch__seed3")


class TestRealWorkers:
    def test_round_trip_and_expansion(self):
        spec = small_spec(measure_real=True, real_workers=2)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["real_workers"] == 2
        assert all(cell["real_workers"] == 2 for cell in spec.expand())

    def test_default_is_absent(self):
        spec = small_spec()
        assert "real_workers" not in spec.to_dict()
        assert all(cell["real_workers"] is None for cell in spec.expand())

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="real_workers"):
            small_spec(real_workers=0)

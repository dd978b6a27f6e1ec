"""The scale saturation family: variants, curves, bends, payloads.

The family sweeps offered load per (protocol, variant) pair through the
parallel runner with the streaming data plane. These tests
pin the pure shape logic (variant matrix, saturation-knee detection,
JSON artifact schema) without simulation, then run one real miniature
sweep end-to-end: determinism, consistency and the
``repro scale`` artifact path.
"""

import json

import pytest

from repro.experiments.scale import (
    ScaleCurve,
    ScaleFamily,
    ScalePoint,
    ScaleVariant,
    default_variants,
    run_scale,
    scale_config,
)


def _point(gap, offered, throughput, consistent=True, arrived=None):
    return ScalePoint(
        mean_interarrival=gap, offered_load=offered,
        arrival_rate=offered if arrived is None else arrived, committed=100.0,
        throughput=throughput, att=50.0, att_p50=40.0, att_p99=90.0,
        consistent=consistent,
    )


class TestVariants:
    def test_default_matrix_is_one_axis_at_a_time(self):
        variants = default_variants()
        labels = [v.label for v in variants]
        assert labels[0] == "base"
        assert len(labels) == len(set(labels))
        base = variants[0]
        for variant in variants[1:]:
            # exactly one knob differs from base per variant
            diffs = sum([
                variant.n_replicas != base.n_replicas,
                variant.n_keys != base.n_keys,
                variant.key_skew != base.key_skew,
                variant.latency != base.latency,
            ])
            assert diffs == 1, f"{variant.label} changes {diffs} knobs"

    def test_axis_values_equal_to_base_are_skipped(self):
        base = ScaleVariant(label="base", n_replicas=5, n_keys=16)
        variants = default_variants(
            replica_counts=(5,), key_counts=(16,), skews=(base.key_skew,),
            wan=False, base=base,
        )
        assert variants == [base]

    def test_payload_round_trips_through_json(self):
        variant = ScaleVariant(label="wan", latency="wan")
        assert json.loads(json.dumps(variant.payload()))["latency"] == "wan"



class TestScaleConfig:
    def test_canonical_config_is_streaming_and_vectorized(self):
        config = scale_config("marp", ScaleVariant(label="x"), 50.0, 100)
        assert config.streaming
        # it carries no hygiene knob: the windows are derived, for every
        # run alike (tests/integration/test_hygiene_windows.py)
        assert not {"ul_retention", "inbox_ttl"} & set(vars(config))

    def test_horizon_scales_with_workload(self):
        small = scale_config("marp", ScaleVariant(label="x"), 50.0, 100)
        bulk = scale_config("marp", ScaleVariant(label="x"), 100.0, 200_000)
        assert small.horizon == 5_000_000.0  # floored at the default
        assert bulk.horizon >= 20.0 * 100.0 * 200_000


class TestSaturation:
    def test_knee_is_first_subefficient_point(self):
        curve = ScaleCurve("marp", ScaleVariant(label="base"), points=[
            _point(100.0, 50.0, 49.0),   # 98% — fine
            _point(50.0, 100.0, 93.0),   # 93% — fine
            _point(25.0, 200.0, 150.0),  # 75% — the knee
            _point(10.0, 500.0, 160.0),
        ])
        assert curve.saturation_load() == 200.0
        assert curve.saturation_load(efficiency=0.5) == 500.0
        assert curve.saturation_load(efficiency=0.99) == 50.0  # 98% < 99%

    def test_unsaturated_sweep_has_no_knee(self):
        curve = ScaleCurve("marp", ScaleVariant(label="base"), points=[
            _point(100.0, 50.0, 49.5), _point(50.0, 100.0, 99.0),
        ])
        assert curve.saturation_load() is None

    def test_knee_compares_with_the_realised_arrival_rate(self):
        # a short sweep's arrivals come slower than nominal: 86 % of the
        # offered rate is every update served as it arrived
        curve = ScaleCurve("marp", ScaleVariant(label="base"), points=[
            _point(120.0, 41.7, 35.8, arrived=36.0),
            _point(15.0, 333.3, 171.1, arrived=290.0),
        ])
        assert curve.saturation_load() == 333.3

    def test_family_bends_group_by_variant_then_protocol(self):
        family = ScaleFamily(title="t", curves=[
            ScaleCurve("marp", ScaleVariant(label="base"),
                       points=[_point(25.0, 200.0, 100.0)]),
            ScaleCurve("mcv", ScaleVariant(label="base"),
                       points=[_point(25.0, 200.0, 199.0)]),
        ])
        bends = family.bends()
        assert bends == {"base": {"marp": 200.0, "mcv": None}}

    def test_curve_accessor_and_miss(self):
        family = ScaleFamily(title="t", curves=[
            ScaleCurve("marp", ScaleVariant(label="base")),
        ])
        assert family.curve("marp", "base").protocol == "marp"
        with pytest.raises(KeyError):
            family.curve("mcv", "base")

    def test_payload_schema_and_json_round_trip(self):
        family = ScaleFamily(title="t", curves=[
            ScaleCurve("marp", ScaleVariant(label="base"),
                       points=[_point(25.0, 200.0, 100.0)]),
        ])
        doc = json.loads(json.dumps(family.payload()))
        assert doc["schema"] == "repro-scale/v1"
        assert doc["bends"]["base"]["marp"] == 200.0
        (curve,) = doc["curves"]
        assert curve["saturation_load"] == 200.0
        assert curve["points"][0]["offered_load"] == 200.0


MINI_VARIANTS = [ScaleVariant(label="mini", n_replicas=3, n_keys=8,
                              key_skew=0.9)]
MINI_KW = dict(
    protocols=("marp", "primary-copy"),
    interarrivals=(80.0, 30.0),
    variants=MINI_VARIANTS,
    requests_per_client=6,
    seed=7,
)


class TestMiniatureSweep:
    @pytest.fixture(scope="class")
    def family(self):
        return run_scale(**MINI_KW)

    def test_one_curve_per_protocol_variant_pair(self, family):
        assert {(c.protocol, c.variant.label) for c in family.curves} == {
            ("marp", "mini"), ("primary-copy", "mini"),
        }
        for curve in family.curves:
            assert [p.mean_interarrival for p in curve.points] == [80.0, 30.0]

    def test_points_are_consistent_and_populated(self, family):
        for curve in family.curves:
            for point in curve.points:
                assert point.consistent
                assert point.committed > 0
                assert point.throughput > 0
                assert point.att_p50 <= point.att_p99
                # one client per replica at rate 1000/gap req/s
                assert point.offered_load == pytest.approx(
                    3 * 1000.0 / point.mean_interarrival
                )

    def test_a_sweep_served_in_full_reports_no_knee(self):
        # 20 updates per client at light loads: every point commits all
        # it was sent at the rate it arrived, yet its commit rate is
        # below 90 % of the nominal offered rate
        family = run_scale(
            protocols=("marp", "mcv"), interarrivals=(120.0, 40.0),
            variants=[ScaleVariant(label="base")], requests_per_client=20,
        )
        for curve in family.curves:
            for point in curve.points:
                assert point.committed == 5 * 20
                assert point.throughput >= 0.9 * point.arrival_rate
            assert any(p.throughput < 0.9 * p.offered_load
                       for p in curve.points)
            assert curve.saturation_load() is None

    def test_text_table_mentions_every_protocol(self, family):
        text = family.table.text
        assert "marp" in text and "primary-copy" in text
        assert "offered/s" in text

    def test_deterministic_rerun(self, family):
        again = run_scale(**MINI_KW)
        assert json.dumps(again.payload(), sort_keys=True) == json.dumps(
            family.payload(), sort_keys=True
        )

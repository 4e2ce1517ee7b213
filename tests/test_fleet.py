import io
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_family
from fleetlife.fleet import (
    AssetRecord,
    FAMILIES,
    DataError,
    LifetimeTable,
    SyntheticFleetSpec,
    VoltageClass,
    build_lifetime_table,
    draw_failures,
    fleet_summary,
    generate_synthetic_fleet,
    parse_asset_csv,
    service_years,
    write_asset_csv,
    years_between,
)
from fleetlife.weibull import REFERENCE_LAWS

HEADER = "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"


def parse(text: str):
    return parse_asset_csv(io.StringIO(text))


class TestParseAssetCsv:
    def test_basic_row(self):
        records = parse(HEADER + "A1,110,2000-01-01,2010-01-01,M3\n")
        assert records == [
            AssetRecord("A1", 110, date(2000, 1, 1), date(2010, 1, 1), "M3")
        ]
        assert records[0].voltage_class is VoltageClass.V110

    def test_empty_failure_and_manufacturer(self):
        records = parse(HEADER + "A2,380,1990-06-15,,\n")
        assert records[0].failure_date is None
        assert records[0].manufacturer_code is None
        assert records[0].voltage_class is VoltageClass.V220_380

    def test_failure_before_commission_rejected_with_row(self):
        with pytest.raises(DataError, match=r"row 2.*failure before commission"):
            parse(HEADER + "A3,110,2010-01-01,2005-01-01,\n")

    def test_failure_equal_commission_rejected(self):
        with pytest.raises(DataError, match="failure before commission"):
            parse(HEADER + "A3,110,2010-01-01,2010-01-01,\n")

    def test_duplicate_asset_id(self):
        text = HEADER + "A1,110,2000-01-01,,\nA1,150,2001-01-01,,\n"
        with pytest.raises(DataError, match=r"row 3.*duplicate asset_id"):
            parse(text)

    def test_unknown_voltage(self):
        with pytest.raises(DataError, match=r"row 2.*unknown voltage 132"):
            parse(HEADER + "A1,132,2000-01-01,,\n")

    def test_malformed_date(self):
        with pytest.raises(DataError, match=r"row 2.*malformed commission_date"):
            parse(HEADER + "A1,110,01/02/2000,,\n")

    def test_bad_header(self):
        with pytest.raises(DataError, match="row 1"):
            parse("id,kv,c,f,m\nA1,110,2000-01-01,,\n")

    def test_row_order_preserved(self):
        text = HEADER + "B,110,2000-01-01,,\nA,150,2001-01-01,,\n"
        assert [r.asset_id for r in parse(text)] == ["B", "A"]

    def test_bytes_stream(self):
        records = parse_asset_csv(io.BytesIO((HEADER + "A1,110,2000-01-01,,\n").encode()))
        assert len(records) == 1

    def test_round_trip_exact(self):
        text = (
            HEADER
            + "A1,110,2000-01-01,2010-01-01,M3\n"
            + "A2,380,1990-06-15,,\n"
            + "A3,220,1985-02-28,2021-03-04,M1\n"
        )
        records = parse(text)
        out = io.StringIO()
        write_asset_csv(records, out)
        assert out.getvalue() == text


class TestBuildLifetimeTable:
    CUTOFF = date(2021, 7, 1)

    def test_failed_asset(self):
        rec = AssetRecord("A", 110, date(2000, 1, 1), date(2010, 1, 1))
        table = build_lifetime_table([rec], self.CUTOFF)
        assert table.event.tolist() == [True]
        assert table.duration[0] == pytest.approx(10.0, abs=0.01)

    def test_censored_asset(self):
        rec = AssetRecord("A", 110, date(2000, 1, 1))
        table = build_lifetime_table([rec], self.CUTOFF)
        assert table.event.tolist() == [False]
        assert table.duration[0] == pytest.approx(21.5, abs=0.01)

    def test_commissioned_at_cutoff(self):
        rec = AssetRecord("A", 110, self.CUTOFF)
        table = build_lifetime_table([rec], self.CUTOFF)
        assert table.duration.tolist() == [0.0]
        assert table.event.tolist() == [False]

    def test_failure_after_cutoff_rejected(self):
        rec = AssetRecord("A", 110, date(2000, 1, 1), date(2021, 8, 1))
        with pytest.raises(DataError, match="outside window"):
            build_lifetime_table([rec], self.CUTOFF)

    def test_cutoff_before_commission_rejected(self):
        rec = AssetRecord("A", 110, date(2022, 1, 1))
        with pytest.raises(DataError, match="before commission"):
            build_lifetime_table([rec], self.CUTOFF)

    def test_exact_day_count_convention(self):
        rec = AssetRecord("A", 110, date(2000, 1, 1), date(2000, 1, 2))
        table = build_lifetime_table([rec], self.CUTOFF)
        assert table.duration.tolist() == [1 / 365.25]

    def test_first_bad_record_named(self):
        records = [
            AssetRecord("OK", 110, date(2000, 1, 1), self.CUTOFF),
            AssetRecord("LATE", 150, date(2000, 1, 1), date(2021, 7, 2)),
            AssetRecord("NEW", 110, date(2021, 7, 2)),
        ]
        assert build_lifetime_table(records[:1], self.CUTOFF).event.tolist() == [True]
        with pytest.raises(DataError, match="'LATE'.*outside window"):
            build_lifetime_table(records, self.CUTOFF)
        with pytest.raises(DataError, match="'NEW'.*before commission"):
            build_lifetime_table(records[::-1], self.CUTOFF)

    def test_columns_follow_records(self):
        records = [
            AssetRecord("A", 380, date(2000, 1, 1), date(2010, 1, 1)),
            AssetRecord("B", 110, date(2001, 3, 1)),
            AssetRecord("C", 150, date(1990, 5, 5), date(2020, 2, 29)),
            AssetRecord("D", 220, date(1985, 1, 1)),
        ]
        table = build_lifetime_table(records, self.CUTOFF)
        for rec, duration, event, code in zip(
            records, table.duration.tolist(), table.event.tolist(), table.family.tolist()
        ):
            end = rec.failure_date or self.CUTOFF
            assert duration == years_between(rec.commission_date, end)
            assert event is rec.failed
            assert FAMILIES[code] is rec.voltage_class
        assert table.families() == set(VoltageClass)
        v220 = table.select(VoltageClass.V220_380)
        assert v220.duration.tolist() == table.duration[[0, 3]].tolist()
        assert v220.event.tolist() == [True, False]

    def test_service_years_at_one_date(self):
        records = [
            AssetRecord("A", 380, date(2000, 1, 1)),
            AssetRecord("B", 150, date(2021, 7, 2)),
        ]
        ages, family = service_years(records, self.CUTOFF)
        assert ages.tolist() == [
            years_between(date(2000, 1, 1), self.CUTOFF),
            -1 / 365.25,
        ]
        assert [FAMILIES[code] for code in family.tolist()] == [
            VoltageClass.V220_380,
            VoltageClass.V150,
        ]
        ages, family = service_years([], self.CUTOFF)
        assert len(ages) == len(family) == 0

    def test_invalid_duration_rejected(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DataError, match="invalid duration"):
                single_family([1.0, bad], [True, False])

    def test_length_matches_input(self):
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(
                sizes={VoltageClass.V110: 25}, commission_years=(1990, 2000), seed=3
            )
        )
        assert len(build_lifetime_table(fleet, self.CUTOFF)) == len(fleet)


class TestFleetSummary:
    def test_empty(self):
        summary = fleet_summary(single_family([], []))
        for vc in VoltageClass:
            assert summary.classes[vc].total == 0
        assert summary.age_histogram == []

    def test_counting(self):
        families = [VoltageClass.V110, VoltageClass.V110, VoltageClass.V150]
        obs = LifetimeTable(
            [10.0, 20.0, 7.0], [True, False, False], [FAMILIES.index(vc) for vc in families]
        )
        summary = fleet_summary(obs)
        assert summary.classes[VoltageClass.V110].total == 2
        assert summary.classes[VoltageClass.V110].events == 1
        assert summary.classes[VoltageClass.V110].censored == 1
        assert summary.classes[VoltageClass.V150].total == 1
        assert summary.classes[VoltageClass.V220_380].total == 0

    def test_histogram_buckets(self):
        obs = single_family([0.0, 4.9, 5.0, 12.0, 12.5], [False] * 5)
        summary = fleet_summary(obs)
        assert summary.age_histogram == [(0, 2), (5, 1), (10, 2)]

    def test_population_scale_count(self):
        obs = single_family([30.0] * 3168, [False] * 3168)
        summary = fleet_summary(obs)
        assert summary.classes[VoltageClass.V110].total == 3168

    def test_csv_export(self):
        out = io.StringIO()
        fleet_summary(single_family([], [])).write_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "voltage_class,total,events,censored"
        assert len(lines) == 4


class TestSyntheticFleet:
    def test_determinism(self):
        spec = SyntheticFleetSpec(
            sizes={VoltageClass.V110: 10}, commission_years=(1980, 2020), seed=42
        )
        assert generate_synthetic_fleet(spec) == generate_synthetic_fleet(spec)

    def test_sizes_exact(self):
        spec = SyntheticFleetSpec(
            sizes={
                VoltageClass.V110: 3168,
                VoltageClass.V150: 10058,
                VoltageClass.V220_380: 2982,
            },
            commission_years=(1975, 2020),
            seed=1,
        )
        fleet = generate_synthetic_fleet(spec)
        by_class = fleet_summary(build_lifetime_table(fleet, date(2021, 7, 1))).classes
        assert by_class[VoltageClass.V110].total == 3168
        assert by_class[VoltageClass.V150].total == 10058
        assert by_class[VoltageClass.V220_380].total == 2982

    def test_zero_sizes(self):
        spec = SyntheticFleetSpec(sizes={}, commission_years=(1980, 1990), seed=0)
        assert generate_synthetic_fleet(spec) == []

    def test_commission_dates_within_range(self):
        spec = SyntheticFleetSpec(
            sizes={VoltageClass.V150: 200}, commission_years=(1991, 1993), seed=9
        )
        for rec in generate_synthetic_fleet(spec):
            assert date(1991, 1, 1) <= rec.commission_date <= date(1993, 12, 31)
            assert rec.failure_date is None

    def test_empty_year_range_rejected(self):
        with pytest.raises(DataError, match="empty commission year range"):
            SyntheticFleetSpec(sizes={}, commission_years=(2000, 1999), seed=0)

    def test_draw_failures_deterministic_and_censored(self):
        spec = SyntheticFleetSpec(
            sizes={VoltageClass.V110: 300}, commission_years=(1950, 1990), seed=5
        )
        fleet = generate_synthetic_fleet(spec)
        cutoff = date(2021, 7, 1)
        once = draw_failures(fleet, REFERENCE_LAWS, cutoff, seed=77)
        again = draw_failures(fleet, REFERENCE_LAWS, cutoff, seed=77)
        assert once == again
        assert any(r.failure_date is not None for r in once)
        for rec in once:
            if rec.failure_date is not None:
                assert rec.failure_date <= cutoff
                assert rec.failure_date > rec.commission_date


@st.composite
def asset_records(draw):
    index = draw(st.integers(0, 10**6))
    kv = draw(st.sampled_from([110, 150, 220, 380]))
    commission = draw(st.dates(date(1950, 1, 1), date(2020, 12, 31)))
    fail_offset = draw(st.one_of(st.none(), st.integers(1, 20000)))
    failure = None
    if fail_offset is not None:
        failure = date.fromordinal(commission.toordinal() + fail_offset)
    manufacturer = draw(st.one_of(st.none(), st.sampled_from(["M1", "M2", "M9"])))
    return AssetRecord(f"A{index}", kv, commission, failure, manufacturer)


@given(st.lists(asset_records(), max_size=30, unique_by=lambda r: r.asset_id))
@settings(max_examples=60)
def test_csv_round_trip_property(records):
    out = io.StringIO()
    write_asset_csv(records, out)
    assert parse_asset_csv(io.StringIO(out.getvalue())) == records


@given(
    st.lists(
        st.tuples(
            st.floats(0, 80, allow_nan=False),
            st.booleans(),
            st.sampled_from(list(VoltageClass)),
        ),
        max_size=50,
    )
)
@settings(max_examples=60)
def test_summary_counts_consistent(raw):
    obs = LifetimeTable(
        [d for d, _, _ in raw],
        [e for _, e, _ in raw],
        [FAMILIES.index(vc) for _, _, vc in raw],
    )
    summary = fleet_summary(obs)
    for vc in VoltageClass:
        cls = summary.classes[vc]
        assert cls.events + cls.censored == cls.total
    assert sum(c.total for c in summary.classes.values()) == len(obs)
    assert sum(n for _, n in summary.age_histogram) == len(obs)


def test_years_between_day_convention():
    assert years_between(date(2000, 1, 1), date(2000, 1, 1)) == 0.0
    assert years_between(date(2000, 1, 1), date(2004, 1, 1)) == pytest.approx(
        1461 / 365.25
    )

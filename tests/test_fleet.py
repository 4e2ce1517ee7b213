import csv
import io
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_fleet
from conftest import fleet_of, rows_of, single_family
from reference_ingest import parse_records, years_between
from fleetlife import fleet as fleet_module
from fleetlife.fleet import (
    FAMILIES,
    VALID_VOLTAGES,
    AssetTable,
    DataError,
    LifetimeTable,
    SyntheticFleetSpec,
    TextColumn,
    VoltageClass,
    _parse_plain,
    build_lifetime_table,
    draw_failures,
    generate_synthetic_fleet,
    parse_asset_csv,
    service_years,
    write_asset_csv,
)
from fleetlife.weibull import REFERENCE_LAWS, WeibullLaw

HEADER = "asset_id,voltage_kv,commission_date,failure_date,manufacturer\n"


def parse(text: str):
    return parse_asset_csv(io.StringIO(text))


class TestParseAssetCsv:
    def test_basic_row(self):
        table = parse(HEADER + "A1,110,2000-01-01,2010-01-01,M3\n")
        assert rows_of(table) == [("A1", 110, date(2000, 1, 1), date(2010, 1, 1), "M3")]
        assert FAMILIES[table.family[0]] is VoltageClass.V110

    def test_empty_failure_and_manufacturer(self):
        table = parse(HEADER + "A2,380,1990-06-15,,\n")
        assert table.failure.tolist() == [0]
        assert list(table.manufacturer) == [""]
        assert FAMILIES[table.family[0]] is VoltageClass.V220_380

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

    @pytest.mark.parametrize(
        "row, named",
        [
            ("A1,110,20000101,,", "commission_date '20000101'"),
            ("A1,110,2000-01-01,20100101,", "failure_date '20100101'"),
        ],
    )
    def test_dates_must_be_yyyy_mm_dd(self, row, named):
        # Python 3.11's fromisoformat reads the basic format 20000101 too;
        # the CSV reads exactly YYYY-MM-DD on every version
        with pytest.raises(DataError, match=f"^row 2: malformed {named}$"):
            parse(HEADER + row + "\n")

    def test_bad_header(self):
        with pytest.raises(DataError, match="row 1"):
            parse("id,kv,c,f,m\nA1,110,2000-01-01,,\n")

    def test_row_order_preserved(self):
        text = HEADER + "B,110,2000-01-01,,\nA,150,2001-01-01,,\n"
        assert list(parse(text).asset_id) == ["B", "A"]

    def test_bytes_stream(self):
        table = parse_asset_csv(io.BytesIO((HEADER + "A1,110,2000-01-01,,\n").encode()))
        assert len(table) == 1

    def test_invalid_utf8_rejected(self):
        with pytest.raises(DataError, match=r"^line 2: not UTF-8 \(byte 0xff: invalid start byte\)$"):
            parse_asset_csv(io.BytesIO(HEADER.encode() + b"A\xff,110,2000-01-01,,\n"))

    @pytest.mark.parametrize(
        "rows, line",
        [
            # the line of the first bad byte, counting CR, LF and CR LF ends,
            # ahead of the duplicate id before it
            (b"A,110,2000-01-01,,\r\nA,110,2000-01-01,,\rB,110,2000-01-01,,\xe2\x82\n", 4),
            (b'"A\n1",110,2000-01-01,,M\xc3\n', 3),
        ],
    )
    def test_invalid_utf8_names_its_line(self, rows, line):
        with pytest.raises(DataError, match=f"^line {line}: not UTF-8 \\(byte 0x"):
            parse_asset_csv(io.BytesIO(HEADER.encode() + rows))

    def test_text_stream_keeps_its_line_ends(self):
        # a stream that ends lines at CR only reads one line with every LF in it
        data = (HEADER + "A1,110,2000-01-01,,\n").encode()
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\r")
        with pytest.raises(csv.Error, match="new-line character"):
            parse_asset_csv(stream)

    def test_round_trip_exact(self):
        text = (
            HEADER
            + "A1,110,2000-01-01,2010-01-01,M3\n"
            + "A2,380,1990-06-15,,\n"
            + "A3,220,1985-02-28,2021-03-04,M1\n"
        )
        out = io.StringIO()
        write_asset_csv(parse(text), out)
        assert out.getvalue() == text


class TestAssetTable:
    def test_columns(self):
        table = fleet_of(
            [("A", 220, date(2000, 1, 1), date(2010, 1, 1), "M1"), ("B", 150, date(2001, 1, 1))]
        )
        assert len(table) == 2
        assert table.voltage_kv.tolist() == [220, 150]
        assert table.commission.tolist() == [
            date(2000, 1, 1).toordinal(),
            date(2001, 1, 1).toordinal(),
        ]
        assert table.failure.tolist() == [date(2010, 1, 1).toordinal(), 0]
        assert list(table.manufacturer) == ["M1", ""]
        assert [FAMILIES[code] for code in table.family.tolist()] == [
            VoltageClass.V220_380,
            VoltageClass.V150,
        ]

    DAY = date(2000, 1, 1)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("A", 132, DAY)], "asset 'A': unknown voltage 132 kV"),
            ([("A", 110, DAY, DAY)], "asset 'A': failure before commission"),
            ([("A", 110, DAY), ("", 110, DAY)], "empty asset_id at index 1"),
            ([("A", 110, DAY), ("A", 150, DAY)], "duplicate asset_id 'A'"),
        ],
    )
    def test_rules_checked(self, rows, message):
        with pytest.raises(DataError, match=message):
            fleet_of(rows)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            AssetTable(["A", "B"], [110], [730000, 730000], [0, 0], ["", ""])

    def test_text_columns_copy_their_input(self):
        # a frozen table keeps its rows when the caller's lists change
        ids, makers = ["A", "B"], ["M1", ""]
        table = AssetTable(ids, [110, 150], [730000, 730000], [0, 0], makers)
        ids.append("A")
        ids[0] = ""
        makers[1] = "M2"
        assert len(table) == 2
        assert list(table.asset_id) == ["A", "B"]
        assert list(table.manufacturer) == ["M1", ""]

    @pytest.mark.parametrize(
        "texts", [[], ["A"], ["", ""], ["", "A\n1", "\u00e9\U0001f600", "\0", "A"]]
    )
    def test_text_column_reads_as_the_list_it_encodes(self, texts):
        for column in (TextColumn.encode(texts), TextColumn.coded(texts)):
            assert len(column) == len(texts)
            assert list(column) == texts
            assert [column[i] for i in range(-len(texts), len(texts))] == texts + texts
            assert column.take(np.arange(len(texts))[::-1]) == texts[::-1]
            assert column.encoded() == [text.encode() for text in texts]
            with pytest.raises(IndexError):
                column[len(texts)]


class TestBuildLifetimeTable:
    CUTOFF = date(2021, 7, 1)

    def test_failed_asset(self):
        table = build_lifetime_table(
            fleet_of([("A", 110, date(2000, 1, 1), date(2010, 1, 1))]), self.CUTOFF
        )
        assert table.event.tolist() == [True]
        assert table.duration[0] == pytest.approx(10.0, abs=0.01)

    def test_censored_asset(self):
        table = build_lifetime_table(fleet_of([("A", 110, date(2000, 1, 1))]), self.CUTOFF)
        assert table.event.tolist() == [False]
        assert table.duration[0] == pytest.approx(21.5, abs=0.01)

    def test_commissioned_at_cutoff(self):
        table = build_lifetime_table(fleet_of([("A", 110, self.CUTOFF)]), self.CUTOFF)
        assert table.duration.tolist() == [0.0]
        assert table.event.tolist() == [False]

    def test_failure_after_cutoff_rejected(self):
        fleet = fleet_of([("A", 110, date(2000, 1, 1), date(2021, 8, 1))])
        with pytest.raises(DataError, match="outside window"):
            build_lifetime_table(fleet, self.CUTOFF)

    def test_cutoff_before_commission_rejected(self):
        fleet = fleet_of([("A", 110, date(2022, 1, 1))])
        with pytest.raises(DataError, match="before commission"):
            build_lifetime_table(fleet, self.CUTOFF)

    def test_exact_day_count_convention(self):
        fleet = fleet_of([("A", 110, date(2000, 1, 1), date(2000, 1, 2))])
        table = build_lifetime_table(fleet, self.CUTOFF)
        assert table.duration.tolist() == [1 / 365.25]

    def test_first_bad_record_named(self):
        rows = [
            ("OK", 110, date(2000, 1, 1), self.CUTOFF),
            ("LATE", 150, date(2000, 1, 1), date(2021, 7, 2)),
            ("NEW", 110, date(2021, 7, 2)),
        ]
        assert build_lifetime_table(fleet_of(rows[:1]), self.CUTOFF).event.tolist() == [True]
        with pytest.raises(DataError, match="'LATE'.*2021-07-02 after cutoff.*outside window"):
            build_lifetime_table(fleet_of(rows), self.CUTOFF)
        with pytest.raises(DataError, match="'NEW'.*before commission 2021-07-02"):
            build_lifetime_table(fleet_of(rows[::-1]), self.CUTOFF)

    def test_columns_follow_records(self):
        rows = [
            ("A", 380, date(2000, 1, 1), date(2010, 1, 1)),
            ("B", 110, date(2001, 3, 1), None),
            ("C", 150, date(1990, 5, 5), date(2020, 2, 29)),
            ("D", 220, date(1985, 1, 1), None),
        ]
        table = build_lifetime_table(fleet_of(rows), self.CUTOFF)
        for (_, kv, commission, failure), duration, event, code in zip(
            rows, table.duration.tolist(), table.event.tolist(), table.family.tolist()
        ):
            assert duration == years_between(commission, failure or self.CUTOFF)
            assert event is (failure is not None)
            assert FAMILIES[code] is VoltageClass.from_kv(kv)
        assert table.families() == set(VoltageClass)
        v220 = table.select(VoltageClass.V220_380)
        assert v220.duration.tolist() == table.duration[[0, 3]].tolist()
        assert v220.event.tolist() == [True, False]

    def test_service_years_at_one_date(self):
        fleet = fleet_of([("A", 380, date(2000, 1, 1)), ("B", 150, date(2021, 7, 2))])
        ages, family = service_years(fleet, self.CUTOFF)
        assert ages.tolist() == [
            years_between(date(2000, 1, 1), self.CUTOFF),
            -1 / 365.25,
        ]
        assert [FAMILIES[code] for code in family.tolist()] == [
            VoltageClass.V220_380,
            VoltageClass.V150,
        ]
        ages, family = service_years(fleet_of([]), self.CUTOFF)
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


class TestSyntheticFleet:
    def test_determinism(self):
        spec = SyntheticFleetSpec(
            sizes={VoltageClass.V110: 10}, commission_years=(1980, 2020), seed=42
        )
        assert rows_of(generate_synthetic_fleet(spec)) == rows_of(generate_synthetic_fleet(spec))

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
        table = build_lifetime_table(fleet, date(2021, 7, 1))
        assert len(table.select(VoltageClass.V110)) == 3168
        assert len(table.select(VoltageClass.V150)) == 10058
        assert len(table.select(VoltageClass.V220_380)) == 2982

    def test_zero_sizes(self):
        spec = SyntheticFleetSpec(sizes={}, commission_years=(1980, 1990), seed=0)
        assert len(generate_synthetic_fleet(spec)) == 0

    def test_commission_dates_within_range(self):
        spec = SyntheticFleetSpec(
            sizes={VoltageClass.V150: 200}, commission_years=(1991, 1993), seed=9
        )
        fleet = generate_synthetic_fleet(spec)
        assert len(fleet) == 200
        for _, kv, commission, failure, _ in rows_of(fleet):
            assert kv == 150
            assert date(1991, 1, 1) <= commission <= date(1993, 12, 31)
            assert failure is None

    def test_empty_year_range_rejected(self):
        with pytest.raises(DataError, match=r"^commission_years: expected 1 <= first <= last <= 9999"):
            SyntheticFleetSpec(sizes={}, commission_years=(2000, 1999), seed=0)

    def test_draw_failures_deterministic_and_censored(self):
        spec = SyntheticFleetSpec(
            sizes={VoltageClass.V110: 300}, commission_years=(1950, 1990), seed=5
        )
        fleet = generate_synthetic_fleet(spec)
        cutoff = date(2021, 7, 1)
        once = draw_failures(fleet, REFERENCE_LAWS, cutoff, seed=77)
        again = draw_failures(fleet, REFERENCE_LAWS, cutoff, seed=77)
        assert rows_of(once) == rows_of(again)
        assert list(once.asset_id) == list(fleet.asset_id)
        assert (once.failure > 0).any()
        for _, _, commission, failure, _ in rows_of(once):
            if failure is not None:
                assert commission < failure <= cutoff

    def test_overflowing_lifetime_stays_in_service(self):
        # a lifetime eta * e ** 1e5 passes the float range where the hazard
        # draw e is above 1, and ends after any cutoff; below 1 it is 0 days,
        # and the asset fails the day after its commission
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(sizes={VoltageClass.V110: 50}, commission_years=(1980, 1990), seed=1)
        )
        law = WeibullLaw(beta=1e-5, eta=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = draw_failures(fleet, {VoltageClass.V110: law}, date(2020, 1, 1), seed=3)
        overflows = -np.log1p(-np.random.default_rng(3).random(50)) > 1.0
        assert 0 < overflows.sum() < 50
        assert drawn.failure.tolist() == np.where(overflows, 0, fleet.commission + 1).tolist()

    @pytest.mark.parametrize("key", ["110", 110, None])
    def test_size_key_must_be_a_family(self, key):
        for n in (5, -1):
            with pytest.raises(DataError, match=rf"^sizes\.{key}: key must be a VoltageClass"):
                SyntheticFleetSpec(sizes={key: n}, commission_years=(1980, 1990))

    @pytest.mark.parametrize("key", ["110", 110, None])
    def test_law_key_must_be_a_family(self, key):
        # a law under any other key matches no family's rows, and would
        # leave this fleet, which draws 96 failures under its family, with none
        fleet = generate_synthetic_fleet(
            SyntheticFleetSpec(sizes={VoltageClass.V110: 300}, commission_years=(1950, 1990), seed=5)
        )
        cutoff, law = date(2021, 7, 1), REFERENCE_LAWS[VoltageClass.V110]
        assert (draw_failures(fleet, {VoltageClass.V110: law}, cutoff, seed=1).failure > 0).sum() == 96
        for laws in ({key: law}, {VoltageClass.V110: law, key: law}):
            with pytest.raises(DataError, match=rf"^laws\.{key}: key must be a VoltageClass"):
                draw_failures(fleet, laws, cutoff, seed=1)


@contextmanager
def generators_made():
    """The generators `np.random.default_rng` makes inside the block, in order."""
    made = []
    make = np.random.default_rng

    def record(seed):
        made.append(make(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", record):
        yield made


def same_draws(array_version, per_value_version, *args):
    """Both versions give the same table and leave their one generator in the
    same state."""
    with generators_made() as made:
        table = array_version(*args)
        reference = per_value_version(*args)
    assert rows_of(table) == rows_of(reference)
    assert [len(made), made[0].bit_generator.state] == [2, made[1].bit_generator.state]


# years and sizes that make every family absent, empty or drawn, and ranges
# of one year at either end of the calendar
fleet_specs = st.builds(
    SyntheticFleetSpec,
    sizes=st.dictionaries(st.sampled_from(list(VoltageClass)), st.integers(0, 40)),
    commission_years=st.integers(1, 9999).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 9999))),
    seed=st.integers(0, 2**64 - 1),
)
weibull_laws = st.builds(WeibullLaw, beta=st.floats(0.3, 12.0), eta=st.floats(0.5, 300.0))


@settings(max_examples=150, deadline=None)
@given(spec=fleet_specs)
@example(spec=SyntheticFleetSpec(sizes={VoltageClass.V220_380: 30}, commission_years=(1, 1), seed=4))
@example(spec=SyntheticFleetSpec(sizes={VoltageClass.V110: 0, VoltageClass.V150: 9},
                                 commission_years=(9999, 9999), seed=5))
def test_fleet_matches_per_value_draws(spec):
    same_draws(generate_synthetic_fleet, reference_fleet.generate_synthetic_fleet, spec)


@settings(max_examples=150, deadline=None)
@given(
    spec=fleet_specs,
    laws=st.dictionaries(st.sampled_from(list(VoltageClass)), weibull_laws),
    cutoff=st.dates(),
    seed=st.integers(0, 2**64 - 1),
)
@example(  # a cutoff before every commission
    spec=SyntheticFleetSpec(sizes={VoltageClass.V110: 20, VoltageClass.V220_380: 20},
                            commission_years=(2000, 2001), seed=6),
    laws=dict(REFERENCE_LAWS), cutoff=date(1999, 12, 31), seed=7,
)
@example(  # laws for one family of three
    spec=SyntheticFleetSpec(sizes=dict.fromkeys(VoltageClass, 30), commission_years=(1900, 1990), seed=8),
    laws={VoltageClass.V150: WeibullLaw(0.5, 10.0)}, cutoff=date(2021, 7, 1), seed=9,
)
def test_failures_match_per_asset_draws(spec, laws, cutoff, seed):
    fleet = generate_synthetic_fleet(spec)
    same_draws(draw_failures, reference_fleet.draw_failures, fleet, laws, cutoff, seed)


def test_half_day_rounds_to_even_and_fails_on_the_cutoff():
    # an exponential law whose scale makes the seed-0 lifetime exactly k + 1/2
    # days, k even: round takes it down to k, and a failure k days after
    # commission, on the cutoff day, lies inside the window
    e = float(-np.log1p(-np.random.default_rng(0).random(1))[0])
    k, eta = next(
        (k, eta)
        for k in range(100, 2000, 2)
        for eta in [(k + 0.5) / fleet_module.DAYS_PER_YEAR / e]
        if eta * e * fleet_module.DAYS_PER_YEAR == k + 0.5
    )
    fleet = fleet_of([("A", 110, date(2000, 1, 1))])
    cutoff = date.fromordinal(date(2000, 1, 1).toordinal() + k)
    laws = {VoltageClass.V110: WeibullLaw(1.0, eta)}
    same_draws(draw_failures, reference_fleet.draw_failures, fleet, laws, cutoff, 0)
    assert rows_of(draw_failures(fleet, laws, cutoff, 0)) == [("A", 110, date(2000, 1, 1), cutoff, None)]


@st.composite
def asset_records(
    draw,
    ids=st.integers(0, 10**6).map("A{}".format),
    makers=st.sampled_from(["M1", "M2", "M9"]),
):
    asset_id = draw(ids)
    kv = draw(st.sampled_from([110, 150, 220, 380]))
    commission = draw(st.dates(date(1950, 1, 1), date(2020, 12, 31)))
    fail_offset = draw(st.one_of(st.none(), st.integers(1, 20000)))
    failure = None
    if fail_offset is not None:
        failure = date.fromordinal(commission.toordinal() + fail_offset)
    manufacturer = draw(st.one_of(st.none(), makers))
    return (asset_id, kv, commission, failure, manufacturer)


# Any text, often with the separator, quote, line ends and NUL that CSV
# writes specially, and non-ASCII. The csv reader of Python 3.10 refuses a NUL
any_text = st.text(
    st.one_of(st.sampled_from(',"\r\n\0\u00e9'), st.characters()).filter(
        lambda c: c != "\0" or sys.version_info >= (3, 11)
    ),
    min_size=1,
    max_size=12,
)


@given(st.lists(asset_records(ids=any_text, makers=any_text), max_size=30, unique_by=lambda r: r[0]))
@settings(max_examples=60)
@example([("T1", 110, date(2000, 1, 1), None, "ACME\rEU")])
def test_csv_round_trip_property(rows):
    out = io.StringIO()
    write_asset_csv(fleet_of(rows), out)
    assert rows_of(parse_asset_csv(io.StringIO(out.getvalue()))) == rows
    # as the CLI reads a file
    assert rows_of(parse_asset_csv(io.BytesIO(out.getvalue().encode()))) == rows
    # a row with nothing to quote is written as its plain line
    for row in rows:
        line = _line(row)
        if line.count(",") == 4 and not any(c in line for c in '"\r\n'):
            one = io.StringIO()
            write_asset_csv(fleet_of([row]), one)
            assert one.getvalue() == HEADER + line + "\n"


def test_rows_quoted_only_in_the_slices_that_need_it(monkeypatch):
    # rows are written two at a time: the slices without a field to quote
    # are written as plain lines, the one with a CR in a name through csv
    rows = [(f"A{i}", 110, date(2000, 1, 1), None, "ACME\rEU" if i == 2 else "M1") for i in range(5)]
    monkeypatch.setattr(fleet_module, "_TAKE_ROWS", 2)
    out = io.StringIO()
    write_asset_csv(fleet_of(rows), out)
    lines = [_line(row) for row in rows]
    lines[2] = lines[2].replace("ACME\rEU", '"ACME\rEU"')
    assert out.getvalue() == HEADER + "".join(line + "\n" for line in lines)
    assert rows_of(parse_asset_csv(io.BytesIO(out.getvalue().encode()))) == rows


def test_years_between_day_convention():
    assert years_between(date(2000, 1, 1), date(2000, 1, 1)) == 0.0
    assert years_between(date(2000, 1, 1), date(2004, 1, 1)) == pytest.approx(
        1461 / 365.25
    )


def _line(row) -> str:
    asset_id, kv, commission, failure, manufacturer = row
    failure = failure.isoformat() if failure else ""
    return f"{asset_id},{kv},{commission.isoformat()},{failure},{manufacturer or ''}"


# Field text with no separator, quote or line break in it
field_text = st.text(
    st.characters(blacklist_characters=',"\r\n', max_codepoint=0x24F), max_size=12
)


FAULTS = ["fields", "empty id", "duplicate id", "voltage", "date", "failure order", "text"]


@st.composite
def faulty_csv(draw):
    """Asset CSV text with seeded faults: up to two rows get one to three each.

    Several faults in one row check the order of the per-row checks; faults
    in two rows check that the first bad row is the one named.
    """
    rows = draw(st.lists(asset_records(), min_size=1, max_size=8, unique_by=lambda r: r[0]))
    lines = [_line(row).split(",") for row in rows]
    for pos in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
        fields = lines[pos]
        for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)):
            if fault == "fields":
                if draw(st.booleans()):
                    fields.append(draw(field_text))
                else:
                    fields.pop()
            elif fault == "empty id":
                fields[0] = ""
            elif fault == "duplicate id":
                fields[0] = lines[draw(st.integers(0, len(lines) - 1))][0]
            elif fault == "voltage" and len(fields) > 1:
                fields[1] = draw(st.sampled_from(["132", "0", "-110", "1x0", "", " 110 ", "0150"]))
            elif fault == "date" and len(fields) > 3:
                fields[draw(st.sampled_from([2, 3]))] = draw(
                    st.sampled_from(["2001-13-01", "2001-02-29", "01/02/2000", "", " ", "20000101"])
                )
            elif fault == "failure order" and len(fields) > 3:
                back = draw(st.integers(0, 400))
                fields[3] = date.fromordinal(rows[pos][2].toordinal() - back).isoformat()
            elif fault == "text" and fields:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(field_text)
    text = [",".join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 3))):
        text.insert(draw(st.integers(0, len(text))), "")
    return HEADER + "\n".join(text) + "\n"


def _outcome(parse_rows, text):
    try:
        return parse_rows(text)
    except (DataError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


def _bytes_stream(text):
    return io.BytesIO(text.encode("utf-8"))


def _oracle_rows(lines):
    return [
        (r.asset_id, r.voltage_kv, r.commission_date, r.failure_date, r.manufacturer_code)
        for r in parse_records(lines)
    ]


@given(faulty_csv())
@settings(max_examples=300, deadline=None)
# rows breaking two neighbouring checks at once, bad rows after a blank
# line, and a failure date of one space
@example(HEADER + "A,110,2000-01-01,,\n,110,2000-01-01\n")
@example(HEADER + "A,110,2000-01-01,,\nA,1x0,2000-01-01,,\n")
@example(HEADER + "A,1x0,2000-13-01,,\n")
@example(HEADER + "A,110,2000-13-01,2000-13-01,\n")
@example(HEADER + "A,132,2000-01-01,2000-01-02x,\n")
@example(HEADER + "A,132,2000-01-01,1999-01-01,\n")
@example(HEADER + "A,110,2000-01-01, ,\n")
@example(HEADER + "A,110,2000-01-01,,\n\nB,132,2000-01-01,,\nC,1x0,2000-01-01,,\n")
# a plain file, a bad header as long as the real one, and one case per
# guard of the columnar path: a quoted field, CRLF line ends, a lone CR, a
# NUL byte, no final newline, a 3-field row then a 7-field row whose fields
# realign into five valid columns, voltages int() reads but the columnar
# path does not, and dates numpy reads but date.fromisoformat does not
# (year 0, year 1 written as ten digits, spaces for a day), or the other
# way round
@example(HEADER + "A,110,2000-01-01,2010-05-06,M1\nB,380,1999-12-31,,\n")
@example(HEADER.upper() + "A,110,2000-01-01,,\n")
@example(HEADER + '"A",110,2000-01-01,,\n')
@example(HEADER + '"A,1",150,2000-01-01,,"M,2"\n')
@example((HEADER + "A,110,2000-01-01,,\nB,150,2000-01-01,,M1\n").replace("\n", "\r\n"))
@example(HEADER + "A,110,2000-01-01,,M1\r\n")
@example(HEADER + "A,110,2000-01-01,,M\r1\n")
@example(HEADER + "A\0,110,2000-01-01,,\n")
@example(HEADER + "A,110,2000-01-01,,M1")
@example(HEADER + "A,110,2000-01-01\n,M1,B,150,2000-01-01,,M2\n")
@example(HEADER + "A,+110,2000-01-01,,\n")
@example(HEADER + "A,\u0661\u0661\u0660,2000-01-01,,\n")
@example(HEADER + "A,110,0000-01-01,,\n")
@example(HEADER + "A,110,2000-01-01,0000-01-01,\n")
@example(HEADER + "A,110,20200101,,\n")
@example(HEADER + "A,110,0000000001,,\n")
@example(HEADER + "A,110,2000-01-01,   2000-02,\n")
# the columnar path's calendar arithmetic: leap days of years that are and
# are not leap years, the first and last days date reads, and days, months
# and a day 0 past their range
@example(HEADER + "A,110,1900-02-29,,\n")
@example(HEADER + "A,110,2000-02-29,2000-03-01,M1\nB,150,1999-02-28,2000-02-29,\n")
@example(HEADER + "A,110,2000-01-01,2100-02-29,\n")
@example(HEADER + "A,110,0001-01-01,9999-12-31,M1\n")
@example(HEADER + "A,110,2021-04-31,,\n")
@example(HEADER + "A,110,2000-01-01,2021-00-10,\n")
@example(HEADER + "A,110,2021-13-01,,\n")
@example(HEADER + "A,110,2000-01-01,2021-01-00,\n")
# and its fixed layout after the first comma: a voltage of two and of four
# digits, a failure field of nine and of eleven bytes, and multi-byte UTF-8
# in ids and manufacturers
@example(HEADER + "A,11,2000-01-01,,\n")
@example(HEADER + "A,1100,2000-01-01,,\n")
@example(HEADER + "A,110,2000-01-01,2001-01-1,\n")
@example(HEADER + "A,110,2000-01-01,2001-01-011,\n")
@example(HEADER + "\u00c5\u20ac1,110,2000-01-01,2001-01-01,M\u00fc\nB\U0001f600,150,2000-01-01,,M\u00fc\n")
def test_ingest_matches_record_parser(text):
    # the record-based parser the table replaced, as the oracle: the same
    # rows, or the same first error naming the same row, whether the file
    # comes as text or as bytes (decoded with universal line splitting, as
    # the CLI reads it)
    expected = _outcome(lambda t: _oracle_rows(io.StringIO(t)), text)
    assert _outcome(lambda t: rows_of(parse(t)), text) == expected
    expected = _outcome(
        lambda t: _oracle_rows(io.TextIOWrapper(_bytes_stream(t), encoding="utf-8", newline="")),
        text,
    )
    assert _outcome(lambda t: rows_of(parse_asset_csv(_bytes_stream(t))), text) == expected


@given(st.lists(asset_records(), max_size=30, unique_by=lambda r: r[0]))
@settings(max_examples=60)
def test_plain_files_take_the_columnar_path(rows):
    # write_asset_csv writes plain files, which must not need the row loop
    out = io.StringIO()
    write_asset_csv(fleet_of(rows), out)
    data = out.getvalue().encode()
    if rows:
        assert rows_of(_parse_plain(data)) == rows
    else:
        assert _parse_plain(data) is None


def test_columnar_path_reads_in_blocks(monkeypatch):
    rows = [(f"A{i}", 110, date(2000, 1, 1), date(2001, 1, 1 + i % 28), "M1") for i in range(50)]
    out = io.StringIO()
    write_asset_csv(fleet_of(rows), out)
    monkeypatch.setattr(fleet_module, "_BLOCK_BYTES", 64)
    assert rows_of(_parse_plain(out.getvalue().encode())) == rows


def test_duplicate_across_blocks_named_as_by_the_row_loop(monkeypatch):
    # the two copies of A3 lie in different blocks of the columnar path
    text = HEADER + "".join(f"A{i},110,2000-01-01,,M1\n" for i in range(50)) + "A3,150,2001-01-01,,\n"
    with pytest.raises(DataError) as by_rows:
        parse(text)
    assert str(by_rows.value) == "row 52: duplicate asset_id 'A3'"
    monkeypatch.setattr(fleet_module, "_BLOCK_BYTES", 64)
    with pytest.raises(DataError) as by_blocks:
        parse_asset_csv(io.BytesIO(text.encode()))
    assert str(by_blocks.value) == str(by_rows.value)


class SameHash(str):
    """An id whose hash is every other's."""

    def __hash__(self):
        return 7


def test_ids_of_equal_hash():
    # equal hashes alone do not make a duplicate, and the first id whose
    # name came before is named
    ids = [SameHash(f"A{i}") for i in range(5)]
    columns = ([110] * 7, [730000] * 7, [0] * 7, [""] * 7)
    assert list(fleet_of([(i, 110, date(2000, 1, 1)) for i in ids]).asset_id) == ids
    with pytest.raises(DataError, match="^duplicate asset_id 'A3'$"):
        AssetTable(ids + [SameHash("A3"), SameHash("A1")], *columns)


def test_plain_ingest_peaks_at_what_it_keeps():
    # the columnar path holds the input, the table it returns and one block
    # of rows, and no second copy of the columns or set of the ids; the
    # table keeps no object per row: its ids are one buffer, and each row
    # adds an offset, three int64 columns and a manufacturer code
    data = (HEADER + "".join(
        f"T{i:06d},{VALID_VOLTAGES[i % 4]},19{60 + i % 40}-0{1 + i % 9}-1{i % 10},"
        f"{'2015-03-02' if i % 3 == 0 else ''},Maker {i % 7}\n"
        for i in range(50_000)
    )).encode()
    tracemalloc.start()
    try:
        table = parse_asset_csv(io.BytesIO(data))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 50_000
    assert peak <= kept + len(data) + 2**20
    assert kept <= len(table) * (len("T000000") + 48)


def test_plain_files_keep_one_object_per_manufacturer_name(monkeypatch):
    # equal names are one object, also across the blocks of the columnar path
    rows = [(f"A{i}", 110, date(2000, 1, 1), None, f"Maker {i % 3}") for i in range(50)]
    out = io.StringIO()
    write_asset_csv(fleet_of(rows), out)
    monkeypatch.setattr(fleet_module, "_BLOCK_BYTES", 64)
    table = parse_asset_csv(io.BytesIO(out.getvalue().encode()))
    assert rows_of(table) == rows
    assert len({id(name) for name in table.manufacturer}) == 3

import json
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlab.cli import (
    D_MAX_LIMIT,
    DEDEKIND_B_MAX,
    MEMBER_MAX_LIMIT,
    PAIRS_MAX_LIMIT,
    SEMIGROUPS_MAX,
    TABLE_PAIRS_MAX,
    VORONOI_EXP_MAX,
    _poly_payload,
    main,
)
from sdlab.identities import IDENTITY_IDS, SuiteRanges, reports_to_csv, reports_to_json, run_suite
from sdlab.polyring import BiLaurent, LaurentPoly
from sdlab.semigroup import SIZE_MAX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, out, err, *mentions):
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    for text in mentions:
        assert text in err


@pytest.mark.parametrize("argv", [["verify", "--threads", "2"], ["semigroup"]], ids=["verify-threads", "semigroup"])
def test_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


class TestSemigroupCommand:
    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--pair", "3,5")
        assert code == 0
        assert "genus: 4" in out
        assert "frobenius: 7" in out
        assert "gaps: 1, 2, 4, 7" in out

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--gens", "1")
        assert code == 0
        assert "genus: 0" in out

    def test_apery(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--gens", "4,7,9", "--apery", "4")
        assert code == 0
        assert "apery(4): 0, 9, 14, 7" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--pair", "3,5", "--format", "json",
                               "--gap-poly", "--quotient", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["generators"] == [3, 5]
        assert obj["frobenius"] == 7
        assert obj["genus"] == 4
        assert obj["gaps"] == [1, 2, 4, 7]
        assert obj["gap_poly"] == {"terms": [[1, "1/1"], [2, "1/1"], [4, "1/1"], [7, "1/1"]]}
        assert obj["quotient"]["genus"] == 2

    @pytest.mark.parametrize("flag", ["--hilbert", "--apery"])
    def test_unbounded_input_refused(self, capsys, deadline, flag):
        code, out, err = run_cli(capsys, "semigroup", "--pair", "3,5", flag, str(10**12))
        assert_one_line_error(code, out, err, str(10**12))

    def test_genus_past_the_limit_refused(self, capsys, deadline):
        # the Apery set is built; the gap listing that every output holds is refused
        code, out, err = run_cli(capsys, "semigroup", "--pair", "100000,100001")
        assert_one_line_error(code, out, err, "genus")

    def test_polynomials_text(self, capsys):
        code, out, _ = run_cli(capsys, "semigroup", "--pair", "2,3", "--semigroup-poly", "--hilbert", "5")
        assert code == 0
        assert "semigroup_poly: 1 - q + q^2" in out

    def test_gcd_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "semigroup", "--pair", "4,6")
        assert code == 2
        assert "error" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["semigroup"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["semigroup", "--pair", "3,5", "--bogus"])
        assert exc.value.code == 2


class TestDedekindCommand:
    def test_sum(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "3", "5", "--sum")
        assert code == 0
        assert "s(3, 5) = 0" in out

    def test_sum_one_third(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "1", "3", "--sum")
        assert code == 0
        assert "1/18" in out

    def test_voronoi(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "3", "5", "--voronoi", "1", "1")
        assert code == 0
        assert "= 13" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "3", "5", "--sum", "--zolotarev", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["dedekind_sum"]["sawtooth"] == "0"
        assert obj["zolotarev"] == [0, 3, 1, 4, 2]

    def test_gcd_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "dedekind", "4", "6", "--sum")
        assert code == 2

    @pytest.mark.parametrize("argv,refused", [
        (["3", str(DEDEKIND_B_MAX + 1), "--sum"], "b"),
        (["3", str(DEDEKIND_B_MAX + 1)], "b"),
        ([str(DEDEKIND_B_MAX + 1), "2", "--floor-sum"], "a (--floor-sum)"),
        (["3", "5", "--voronoi", "1", str(VORONOI_EXP_MAX + 1)], "--voronoi exponent"),
        (["3", "5", "--voronoi", str(VORONOI_EXP_MAX + 1), "1"], "--voronoi exponent"),
    ], ids=["b-sum", "b-default", "a-floor-sum", "voronoi-n", "voronoi-m"])
    def test_size_past_its_limit_refused(self, capsys, deadline, monkeypatch, argv, refused):
        def no_work(*args, **kwargs):
            raise AssertionError("the work started before the size was checked")

        for name in ("dedekind_sum", "voronoi_sum", "carlitz_floor_sum"):
            monkeypatch.setattr(f"sdlab.cli.{name}", no_work)
        code, out, err = run_cli(capsys, "dedekind", *argv)
        assert_one_line_error(code, out, err, f"error: {refused} ")

    def test_large_a_allowed_without_floor_sum(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", str(DEDEKIND_B_MAX + 1), "3", "--sum")
        assert code == 0

    @pytest.mark.parametrize("argv", [[], ["--sum", "--format", "json"]], ids=["default", "sum-json"])
    def test_a_past_float_range_is_one_line(self, capsys, argv):
        # the cotangent route takes pi * a * k / b as a float, and 10**400 has none
        code, out, err = run_cli(capsys, "dedekind", str(10**400), "7", *argv)
        assert_one_line_error(code, out, err, "float")


class TestVerifyCommand:
    ARGS = ("verify", "--pairs-max", "7", "--semigroups", "1", "--member-max", "6", "--seed", "0")

    def test_exit_zero_and_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(capsys, *self.ARGS, "--out", str(out_file))
        assert code == 0
        objs = json.loads(out_file.read_text())
        assert objs
        assert all(o["verdict"] in ("pass", "expected-discrepancy") for o in objs)
        assert "checked" in err

    def test_byte_identical_runs(self, capsys, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(capsys, *self.ARGS, "--out", str(f1))
        run_cli(capsys, *self.ARGS, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_timings_change_nothing_else(self, capsys, tmp_path):
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        run_cli(capsys, *self.ARGS, "--out", str(plain))
        run_cli(capsys, *self.ARGS, "--timings", "--out", str(timed))
        objs = json.loads(timed.read_text())
        assert any(o["elapsed_ms"] > 0 for o in objs)
        for o in objs:
            o["elapsed_ms"] = 0.0
        assert objs == json.loads(plain.read_text())

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_run_is_suite_ranges(self, capsys, tmp_path, seed):
        # SuiteRanges() describes the run `sdlab verify` makes with no size given
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "--seed", str(seed), "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == reports_to_json(run_suite(SuiteRanges(), seed=seed)).encode()

    @pytest.mark.parametrize("fmt, to_text", [("json", reports_to_json), ("csv", reports_to_csv)])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_streamed_out_is_the_text(self, capsys, tmp_path, fmt, to_text, seed):
        # --out is written one report at a time, over an earlier and longer file
        out_file = tmp_path / f"report.{fmt}"
        out_file.write_bytes(b"an earlier report\n" * 10**5)
        code, _, _ = run_cli(capsys, "verify", "--seed", str(seed), "--format", fmt, "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == to_text(run_suite(SuiteRanges(), seed=seed)).encode()

    def test_csv_and_json_same_content(self, capsys, tmp_path):
        fj, fc = tmp_path / "r.json", tmp_path / "r.csv"
        run_cli(capsys, *self.ARGS, "--out", str(fj))
        run_cli(capsys, *self.ARGS, "--format", "csv", "--out", str(fc))
        objs = json.loads(fj.read_text())
        lines = fc.read_text().strip().split("\n")
        assert len(lines) - 1 == len(objs)
        for line, obj in zip(lines[1:], objs):
            ident, params, mode, residual, verdict, _ = line.split(",", 5)
            assert ident == obj["id"]
            assert mode == obj["mode"]
            assert verdict == obj["verdict"]
            parsed = {k: int(v) for k, v in (kv.split("=") for kv in params.split(";"))} if params else {}
            assert parsed == obj["params"]
            assert float(residual) == obj["residual"]

    def test_empty_run(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--pairs-max", "0")
        assert code == 0
        assert json.loads(out) == []
        assert "empty" in err

    @pytest.mark.parametrize("argv", [("--identity", "prop7", "--d-max", "0"),
                                      ("--identity", "prop1.eq2", "--member-max", "1"),
                                      ("--identity", "eq1", "--pairs-max", "2")])
    def test_empty_plan_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert_one_line_error(code, out, err, "no check")

    def test_identity_filter(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--pairs-max", "10", "--semigroups", "0",
                               "--identity", "prop6")
        assert code == 0
        objs = json.loads(out)
        assert objs and all(o["id"] == "prop6.eq7" for o in objs)

    def test_identity_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--pairs-max", "6", "--semigroups", "1", "--member-max", "15",
                               "--seed", "0", "--identity", "prop1")
        assert code == 0
        ids = {o["id"] for o in json.loads(out)}
        assert ids == {"prop1.eq2", "prop1.eq3", "prop1.eq4", "prop1.eq5"}

    def test_unknown_identity_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--identity", "nonsense")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and "nonsense" in err
        assert "Traceback" not in err

    def test_expected_discrepancy_does_not_fail_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--pairs-max", "6", "--semigroups", "0",
                               "--identity", "prop4")
        assert code == 0
        objs = json.loads(out)
        assert any(o["verdict"] == "expected-discrepancy" for o in objs)

    def test_identity_t11_alone(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--pairs-max", "6", "--semigroups", "0",
                               "--identity", "prop4.T11")
        assert code == 0
        objs = json.loads(out)
        assert objs and all(o["id"] == "prop4.T11" for o in objs)

    @pytest.mark.parametrize("identity_id", ["prop1.eq3", "prop1.eq5"])
    def test_identity_keeps_one_statement_of_a_shared_call(self, capsys, identity_id):
        # one check_prop1 / check_prop1_ab call gives two statements; the filter keeps one
        code, out, _ = run_cli(capsys, "verify", "--pairs-max", "6", "--semigroups", "1", "--member-max", "15",
                               "--seed", "0", "--identity", identity_id)
        assert code == 0
        objs = json.loads(out)
        assert objs and all(o["id"] == identity_id for o in objs)

    def test_help_names_every_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for identity_id in IDENTITY_IDS:
            assert identity_id in out

    def test_threads_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.ARGS, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,limit", [("--pairs-max", PAIRS_MAX_LIMIT), ("--semigroups", SEMIGROUPS_MAX),
                                            ("--member-max", MEMBER_MAX_LIMIT), ("--d-max", D_MAX_LIMIT)])
    def test_sweep_past_its_limit_refused(self, capsys, deadline, monkeypatch, flag, limit):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran before the sweep size was checked")

        monkeypatch.setattr("sdlab.cli.run_suite", no_suite)
        code, out, err = run_cli(capsys, "verify", flag, str(limit + 1))
        assert_one_line_error(code, out, err, flag, str(limit + 1))

    @pytest.mark.parametrize("flag", ["--pairs-max", "--semigroups", "--member-max", "--d-max"])
    def test_negative_sweep_refused(self, capsys, monkeypatch, flag):
        # --pairs-max 0 is the one empty run; a negative size is not another
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran before the sweep size was checked")

        monkeypatch.setattr("sdlab.cli.run_suite", no_suite)
        code, out, err = run_cli(capsys, "verify", flag, "-1")
        assert_one_line_error(code, out, err, flag, "-1")

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "--pairs-max", "3", "--semigroups", "0", "--out", str(missing))
        assert_one_line_error(code, out, err, str(missing))

    def test_unwritable_out_refused_before_the_suite(self, capsys, tmp_path, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran before --out was checked")

        monkeypatch.setattr("sdlab.cli.run_suite", no_suite)
        missing = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "--out", str(missing))
        assert_one_line_error(code, out, err, str(missing))

    @pytest.mark.parametrize("argv", [("--identity", "nonsense"), ("--identity", "eq1", "--pairs-max", "2")])
    def test_refused_run_keeps_out(self, capsys, tmp_path, argv):
        out_file = tmp_path / "report.json"
        out_file.write_bytes(b"earlier report\n")
        code, out, err = run_cli(capsys, "verify", *argv, "--out", str(out_file))
        assert_one_line_error(code, out, err)
        assert out_file.read_bytes() == b"earlier report\n"

    def test_out_replaced_by_the_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        out_file.write_bytes(b"an earlier report, longer than the new one " * 1000)
        code, _, _ = run_cli(capsys, "verify", "--pairs-max", "3", "--semigroups", "0", "--identity", "eq1",
                             "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == reports_to_json(
            run_suite(SuiteRanges(pairs_max=3, semigroups=0, identities=("eq1",)))).encode()


class TestTableCommand:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--pairs-max", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,b,genus,frobenius,dedekind_sum,v11"
        assert "3,5,4,7,0,13" in lines

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--pairs-max", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {"a": 3, "b": 5, "genus": 4, "frobenius": 7, "dedekind_sum": "0", "v11": 13} in rows

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "table", "--pairs-max", "5", "--out", str(missing))
        assert_one_line_error(code, out, err, str(missing))

    def test_pairs_max_past_its_limit_refused(self, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the table was built before --pairs-max was checked")

        monkeypatch.setattr("sdlab.cli._table_text", no_table)
        code, out, err = run_cli(capsys, "table", "--pairs-max", str(TABLE_PAIRS_MAX + 1))
        assert_one_line_error(code, out, err, "--pairs-max", str(TABLE_PAIRS_MAX + 1))

    def test_negative_pairs_max_refused(self, capsys):
        code, out, err = run_cli(capsys, "table", "--pairs-max", "-4")
        assert_one_line_error(code, out, err, "--pairs-max", "-4")

    @pytest.mark.parametrize("pairs_max", ["0", "1", "2"])
    def test_empty_table_refused(self, capsys, tmp_path, pairs_max):
        out_file = tmp_path / "table.csv"
        out_file.write_text("kept\n")
        code, out, err = run_cli(capsys, "table", "--pairs-max", pairs_max, "--out", str(out_file))
        assert_one_line_error(code, out, err, "--pairs-max", pairs_max)
        assert out_file.read_text() == "kept\n"

    def test_unwritable_out_refused_before_the_table(self, capsys, tmp_path, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the table was built before --out was checked")

        monkeypatch.setattr("sdlab.cli.torus_semigroup", no_table)
        missing = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "table", "--out", str(missing))
        assert_one_line_error(code, out, err, str(missing))


# -- exact output: every byte of one full run per command and format ---------------

SEMIGROUP_ARGV = ["semigroup", "--pair", "3,5", "--apery", "5", "--gap-poly", "--semigroup-poly", "--hilbert", "9",
                  "--quotient", "2"]
DEDEKIND_ARGV = ["dedekind", "3", "5", "--sum", "--voronoi", "2", "1", "--carlitz", "--zolotarev", "--sawtooth-poly",
                 "--floor-sum"]

SEMIGROUP_TEXT = """\
generators: 3, 5
genus: 4
frobenius: 7
gaps: 1, 2, 4, 7
apery(5): 0, 6, 12, 3, 9
gap_poly: q + q^2 + q^4 + q^7
semigroup_poly: 1 - q + q^3 - q^4 + q^5 - q^7 + q^8
hilbert(<= 9): 1 + q^3 + q^5 + q^6 + q^8 + q^9
S/2: genus 2, frobenius 2, gaps [1, 2]
"""

SEMIGROUP_JSON = """\
{
  "apery": {
    "elements": [
      0,
      6,
      12,
      3,
      9
    ],
    "s": 5
  },
  "frobenius": 7,
  "gap_poly": {
    "terms": [
      [
        1,
        "1/1"
      ],
      [
        2,
        "1/1"
      ],
      [
        4,
        "1/1"
      ],
      [
        7,
        "1/1"
      ]
    ]
  },
  "gaps": [
    1,
    2,
    4,
    7
  ],
  "generators": [
    3,
    5
  ],
  "genus": 4,
  "hilbert": {
    "terms": [
      [
        0,
        "1/1"
      ],
      [
        3,
        "1/1"
      ],
      [
        5,
        "1/1"
      ],
      [
        6,
        "1/1"
      ],
      [
        8,
        "1/1"
      ],
      [
        9,
        "1/1"
      ]
    ]
  },
  "quotient": {
    "d": 2,
    "frobenius": 2,
    "gaps": [
      1,
      2
    ],
    "generators": [
      3,
      4,
      5,
      6
    ],
    "genus": 2
  },
  "semigroup_poly": {
    "terms": [
      [
        0,
        "1/1"
      ],
      [
        1,
        "-1/1"
      ],
      [
        3,
        "1/1"
      ],
      [
        4,
        "-1/1"
      ],
      [
        5,
        "1/1"
      ],
      [
        7,
        "-1/1"
      ],
      [
        8,
        "1/1"
      ]
    ]
  }
}
"""

SEMIGROUP_CSV = """\
key,value
generators,"[3, 5]"
frobenius,7
genus,4
gaps,"[1, 2, 4, 7]"
apery,"{""s"": 5, ""elements"": [0, 6, 12, 3, 9]}"
gap_poly,q + q^2 + q^4 + q^7
semigroup_poly,1 - q + q^3 - q^4 + q^5 - q^7 + q^8
hilbert,1 + q^3 + q^5 + q^6 + q^8 + q^9
quotient,"{""d"": 2, ""generators"": [3, 4, 5, 6], ""frobenius"": 2, ""genus"": 2, ""gaps"": [1, 2]}"
"""

DEDEKIND_TEXT = """\
s(3, 5) = 0 [sawtooth] = 0 [voronoi] ~ -1.94289029309e-17 [cotangent]
V_{2,1}(3, 5) = 45
c(q, t; 3, 5) = 1 + q*t + q*t^2 + q^2*t^3
zolotarev: [0, 3, 1, 4, 2]
sawtooth_poly: -1/2 + 1/10*q - 3/10*q^2 + 3/10*q^3 - 1/10*q^4
floor_sum lhs: 1 + 2*q + q^2
floor_sum rhs: 1 + 2*q + q^2
"""

DEDEKIND_JSON = """\
{
  "a": 3,
  "b": 5,
  "carlitz": {
    "terms": [
      [
        0,
        0,
        "1/1"
      ],
      [
        1,
        1,
        "1/1"
      ],
      [
        1,
        2,
        "1/1"
      ],
      [
        2,
        3,
        "1/1"
      ]
    ]
  },
  "dedekind_sum": {
    "cotangent": "-1.94289029309e-17",
    "sawtooth": "0",
    "voronoi": "0"
  },
  "floor_sum": {
    "lhs": {
      "terms": [
        [
          0,
          "1/1"
        ],
        [
          1,
          "2/1"
        ],
        [
          2,
          "1/1"
        ]
      ]
    },
    "rhs": {
      "terms": [
        [
          0,
          "1/1"
        ],
        [
          1,
          "2/1"
        ],
        [
          2,
          "1/1"
        ]
      ]
    }
  },
  "sawtooth_poly": {
    "terms": [
      [
        0,
        "-1/2"
      ],
      [
        1,
        "1/10"
      ],
      [
        2,
        "-3/10"
      ],
      [
        3,
        "3/10"
      ],
      [
        4,
        "-1/10"
      ]
    ]
  },
  "voronoi": {
    "m": 2,
    "n": 1,
    "value": 45
  },
  "zolotarev": [
    0,
    3,
    1,
    4,
    2
  ]
}
"""

DEDEKIND_CSV = """\
key,value
a,3
b,5
dedekind_sum,"{""sawtooth"": ""0"", ""voronoi"": ""0"", ""cotangent"": ""-1.94289029309e-17""}"
voronoi,"{""m"": 2, ""n"": 1, ""value"": 45}"
carlitz,1 + q*t + q*t^2 + q^2*t^3
zolotarev,"[0, 3, 1, 4, 2]"
sawtooth_poly,-1/2 + 1/10*q - 3/10*q^2 + 3/10*q^3 - 1/10*q^4
floor_sum,"{""lhs"": ""1 + 2*q + q^2"", ""rhs"": ""1 + 2*q + q^2""}"
"""

DEDEKIND_DEFAULT = """\
s(3, 5) = 0 [sawtooth] = 0 [voronoi] ~ -1.94289029309e-17 [cotangent]
"""

TABLE_CSV = """\
a,b,genus,frobenius,dedekind_sum,v11
2,3,1,1,-1/18,2
3,4,3,5,-1/8,8
2,5,2,3,0,7
3,5,4,7,0,13
4,5,6,11,-1/5,20
5,6,10,19,-5/18,40
2,7,3,5,1/14,15
3,7,6,11,-1/14,29
4,7,9,17,1/14,41
5,7,12,23,-1/14,55
6,7,15,29,-5/14,70
"""

TABLE_JSON = """\
[
  {
    "a": 2,
    "b": 3,
    "dedekind_sum": "-1/18",
    "frobenius": 1,
    "genus": 1,
    "v11": 2
  },
  {
    "a": 3,
    "b": 4,
    "dedekind_sum": "-1/8",
    "frobenius": 5,
    "genus": 3,
    "v11": 8
  },
  {
    "a": 2,
    "b": 5,
    "dedekind_sum": "0",
    "frobenius": 3,
    "genus": 2,
    "v11": 7
  },
  {
    "a": 3,
    "b": 5,
    "dedekind_sum": "0",
    "frobenius": 7,
    "genus": 4,
    "v11": 13
  },
  {
    "a": 4,
    "b": 5,
    "dedekind_sum": "-1/5",
    "frobenius": 11,
    "genus": 6,
    "v11": 20
  },
  {
    "a": 5,
    "b": 6,
    "dedekind_sum": "-5/18",
    "frobenius": 19,
    "genus": 10,
    "v11": 40
  },
  {
    "a": 2,
    "b": 7,
    "dedekind_sum": "1/14",
    "frobenius": 5,
    "genus": 3,
    "v11": 15
  },
  {
    "a": 3,
    "b": 7,
    "dedekind_sum": "-1/14",
    "frobenius": 11,
    "genus": 6,
    "v11": 29
  },
  {
    "a": 4,
    "b": 7,
    "dedekind_sum": "1/14",
    "frobenius": 17,
    "genus": 9,
    "v11": 41
  },
  {
    "a": 5,
    "b": 7,
    "dedekind_sum": "-1/14",
    "frobenius": 23,
    "genus": 12,
    "v11": 55
  },
  {
    "a": 6,
    "b": 7,
    "dedekind_sum": "-5/14",
    "frobenius": 29,
    "genus": 15,
    "v11": 70
  }
]
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (SEMIGROUP_ARGV + ["--format", "text"], SEMIGROUP_TEXT),
        (SEMIGROUP_ARGV + ["--format", "json"], SEMIGROUP_JSON),
        (SEMIGROUP_ARGV + ["--format", "csv"], SEMIGROUP_CSV),
        (DEDEKIND_ARGV + ["--format", "text"], DEDEKIND_TEXT),
        (DEDEKIND_ARGV + ["--format", "json"], DEDEKIND_JSON),
        (DEDEKIND_ARGV + ["--format", "csv"], DEDEKIND_CSV),
        (["dedekind", "3", "5"], DEDEKIND_DEFAULT),
        (["table", "--pairs-max", "7", "--format", "csv"], TABLE_CSV),
        (["table", "--pairs-max", "7", "--format", "json"], TABLE_JSON),
    ],
    ids=["semigroup-text", "semigroup-json", "semigroup-csv", "dedekind-text", "dedekind-json", "dedekind-csv",
         "dedekind-default", "table-csv", "table-json"],
)
def test_exact_output(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


class TestPolyPayload:
    def test_terms_format(self):
        f = LaurentPoly({2: Fraction(3, 4), -1: 2})
        assert _poly_payload(f, "json") == {"terms": [[-1, "2/1"], [2, "3/4"]]}

    def test_bivariate_roundtrip(self):
        p = BiLaurent({(0, 0): 1, (2, 3): Fraction(-1, 2)})
        assert _poly_payload(p, "json") == {"terms": [[0, 0, "1/1"], [2, 3, "-1/2"]]}


# -- fuzzing main(argv) in-process ------------------------------------------------

# Small values, and values that a size bound must refuse before any work.
# A generator of 10**12 or more is refused beside any other but 1 (the genus
# passes SIZE_MAX), and so is the pair 100000,100001.  Values such as 10**5
# or SIZE_MAX + 1 beside a small generator are left out of the generator
# lists: they give a genus at or under SIZE_MAX, which is allowed and takes
# seconds to list.  10**400 is past float range.
HUGE = [10**12, 2**64, 10**400, -(10**30)]
INTS = st.one_of(st.integers(-3, 40), st.sampled_from([100000, SIZE_MAX + 1, *HUGE]))
GENERATORS = st.one_of(
    st.lists(st.one_of(st.integers(1, 40), st.integers(-3, 40), st.sampled_from(HUGE)), max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["100000,100001", f"{SIZE_MAX + 1},{SIZE_MAX + 2}", "4,6", "1,1"]),
)
GARBAGE = st.one_of(
    st.sampled_from(["", "x", "-", "--", "1.5", "3,,5", "nan", "--bogus", "--format", "\u0663", "-1"]),
    st.text(max_size=4),
)
FORMAT = st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv", "xml"]))


def small_or_over(small, limit):
    """Values that run quickly, or that the limit must refuse before any work."""
    return st.one_of(small, st.sampled_from([limit + 1, *HUGE])).map(str)


def argv_of(command, head, flags):
    return st.tuples(head, st.lists(st.one_of(*flags, st.tuples(GARBAGE)), max_size=4)).map(
        lambda t: [command, *t[0], *chain.from_iterable(t[1])])


ARGV = st.one_of(
    argv_of("semigroup", st.tuples(st.sampled_from(["--gens", "--pair"]), GENERATORS), [
        st.tuples(st.sampled_from(["--apery", "--hilbert", "--quotient"]), INTS.map(str)),
        st.tuples(st.sampled_from(["--gap-poly", "--semigroup-poly"])),
        FORMAT,
    ]),
    # a and b are small or past DEDEKIND_B_MAX: the sums take O(b) steps, and
    # O(a) for --floor-sum, so values just under the limit take seconds
    argv_of("dedekind", st.tuples(small_or_over(st.integers(-3, 30), DEDEKIND_B_MAX),
                                  small_or_over(st.integers(-3, 30), DEDEKIND_B_MAX)), [
        st.tuples(st.sampled_from(["--sum", "--carlitz", "--zolotarev", "--sawtooth-poly", "--floor-sum"])),
        st.tuples(st.just("--voronoi"), small_or_over(st.integers(-2, 6), VORONOI_EXP_MAX),
                  small_or_over(st.integers(-2, 6), VORONOI_EXP_MAX)),
        FORMAT,
    ]),
    argv_of("table", st.tuples(st.just("--pairs-max"), small_or_over(st.integers(-3, 9), TABLE_PAIRS_MAX)), [FORMAT]),
    # the sweep sizes are small or past their limits, for the same reason
    argv_of("verify", st.tuples(st.just("--pairs-max"), small_or_over(st.integers(-3, 6), PAIRS_MAX_LIMIT)), [
        st.tuples(st.just("--semigroups"), small_or_over(st.integers(-2, 6), SEMIGROUPS_MAX)),
        st.tuples(st.just("--member-max"), small_or_over(st.integers(-2, 6), MEMBER_MAX_LIMIT)),
        st.tuples(st.just("--d-max"), small_or_over(st.integers(-2, 6), D_MAX_LIMIT)),
        st.tuples(st.just("--seed"), INTS.map(str)),
        st.tuples(st.just("--identity"), st.one_of(st.sampled_from(IDENTITY_IDS), GARBAGE)),
        st.tuples(st.just("--timings")),
        FORMAT,
    ]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV)
def test_fuzzed_argv_exits_cleanly(capsys, deadline, argv):
    """Any argument list ends in exit 0, 1 or 2 without a traceback, within the
    deadline, which restarts for each case."""
    deadline()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv

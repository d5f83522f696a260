import json
import os
import subprocess
import sys

import pytest

import cubicmaps
from cubicmaps.cli import UsageError, _iter_admissible_planes, main, parse_triple
from cubicmaps.dataset import (
    NO_FILTER,
    STRICT_ORTHONORMAL,
    EnumConfig,
    generate_dataset,
    write_output,
)
from cubicmaps.finitefield import ProjPoint
from cubicmaps.linsys import FIVE_POINT, SIX_POINT, SystemPencils
from cubicmaps.surjectivity import label_plane, pencil_normal

CASE46 = "1,0,0,0,0;0,0,0,1,0;1,1,0,0,1"
SIX_E1_E2_E3 = "1,0,0,0;0,1,0,0;0,0,1,0"
# six points over GF(2) whose cubics include a plane with no 0-dimensional pencil
GF2_SIX_POINTS = "1,0,0;0,1,0;0,0,1;1,1,1;2,3,1;3,2,1"


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    # keep the default manifest and any output files out of the repo
    monkeypatch.chdir(tmp_path)
    return tmp_path


def manifest_entries(path="cubicmaps-runs.jsonl"):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestParseTriple:
    def test_plain(self):
        assert parse_triple("1,0;0,1;1,1") == ((1, 0), (0, 1), (1, 1))

    def test_spaces_and_brackets(self):
        got = parse_triple("(1, 0, 0, 0, 0); [0,0,0,1,0] ; 1,1,0,0,1")
        assert got == ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))

    def test_two_vectors_rejected(self):
        with pytest.raises(UsageError, match="three"):
            parse_triple("1,0;0,1")

    def test_non_integer_rejected(self):
        with pytest.raises(UsageError, match="malformed vector"):
            parse_triple("1,x;0,1;1,1")


class TestDataset:
    def test_six_case(self, capsys):
        assert main(["dataset", "--case", "six", "--out", "six.txt"]) == 0
        out = capsys.readouterr().out
        assert "wrote 336 records to six.txt" in out
        assert "positives: 0" in out
        assert "all labels are 0" in out
        with open("six.txt") as fh:
            assert sum(1 for _ in fh) == 336

    def test_no_admissible_plane_writes_no_records(self, capsys):
        # all four GF(3) points of z = 0 are base points, so z divides every form
        # of the system and no subspace spans an admissible plane
        points = "1,0,0;0,1,0;1,1,0;1,2,0;0,0,1;1,1,1"
        argv = ["dataset", "--case", "custom", "--p", "3", "--points", points, "--out", "e.txt"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "wrote 0 records to e.txt" in out
        assert "no subspace spans an admissible plane" in out
        assert "all labels are 0" not in out
        with open("e.txt") as fh:
            assert fh.read() == ""
        [entry] = manifest_entries()
        assert entry["counters"]["records"] == 0

    def test_manifest_entry(self):
        main(["dataset", "--case", "six", "--out", "six.txt"])
        entries = manifest_entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["subcommand"] == "dataset"
        assert entry["config"] == {"case": "six", "p": 2, "filter": "norm_only"}
        assert len(entry["dataset_sha256"]) == 64
        assert entry["wall_time_s"] >= 0
        assert set(entry["stages"]) == {"dataset_s", "write_s"}
        assert all(seconds >= 0 for seconds in entry["stages"].values())
        # 14 subspaces labeled through one memo: all 35 system pencils decided up
        # front, 25 pencil tests, 42 pencil keys looked up, 12 members of GF(2)^4
        # scanned once each on the one chunk of the 40,896 points of levels 1..9,
        # and 6 witness points decoded and evaluated exactly
        assert entry["counters"] == {"records": 336, "positives": 0, "subspaces": 14,
                                     "system_pencils": 35, "member_zero_sets": 12,
                                     "scanned_points": 12 * 40896,
                                     "pencil_tests": 25, "key_lookups": 42, "witness_points": 6}

    def test_manifest_counts_five_point_key_lookups(self):
        # the memo decides all 155 system pencils before the walk looks up a key
        main(["dataset", "--case", "five", "--out", "five.txt"])
        counters = manifest_entries()[-1]["counters"]
        assert (counters["key_lookups"], counters["system_pencils"]) == (582, 155)

    def test_manifest_accumulates(self):
        main(["dataset", "--case", "six", "--out", "six.txt"])
        main(["stats", "--data", "six.txt"])
        entries = manifest_entries()
        assert [e["subcommand"] for e in entries] == ["dataset", "stats"]
        assert entries[0]["dataset_sha256"] == entries[1]["dataset_sha256"]

    def test_bad_prime(self, capsys):
        assert main(["dataset", "--case", "six", "--p", "4", "--out", "x.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dataset", "--case", "five_point", "--out", "x.txt"],
        ["dataset", "--filter", "norm_only", "--out", "x.txt"],
    ])
    def test_library_names_are_not_cli_spellings(self, argv, capsys):
        # one spelling per value, so a manifest's config.case names the run one way
        assert main(argv) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not os.path.exists("x.txt") and not os.path.exists("cubicmaps-runs.jsonl")

    def test_jobs_is_not_an_option(self, capsys):
        # subspaces are labeled in one process, so there is no worker count to ask for
        assert main(["dataset", "--case", "six", "--out", "six.txt", "--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not os.path.exists("six.txt") and not os.path.exists("cubicmaps-runs.jsonl")

    @pytest.mark.parametrize("flag, mode, count", [
        ("strict", STRICT_ORTHONORMAL, 48), ("none", NO_FILTER, 2520)])
    def test_filter_reaches_the_dataset(self, flag, mode, count):
        # 336 records under the default norm filter
        assert main(["dataset", "--case", "six", "--filter", flag, "--out", "six.txt"]) == 0
        write_output(generate_dataset(EnumConfig(SIX_POINT, filter_mode=mode)), "want.txt")
        with open("six.txt", "rb") as got, open("want.txt", "rb") as want:
            data = got.read()
            assert data == want.read()
        assert data.count(b"\n") == count
        # the manifest records the resolved filter name
        assert manifest_entries()[0]["config"]["filter"] == mode

    @pytest.mark.parametrize("argv", [
        ["dataset", "--case", "five", "--p", "3", "--out", "x.txt"],
        ["check", "--case", "six", "--p", "3", "--triple", SIX_E1_E2_E3],
        ["oracle", "--case", "six", "--p", "5", "--all"],
    ])
    def test_reference_cases_are_refused_over_other_primes(self, argv, capsys):
        # the fixture reduced mod q is not the system of cubics through the reference points
        assert main(argv) == 2
        assert "--case custom --points" in capsys.readouterr().err
        assert not os.path.exists("x.txt") and not os.path.exists("cubicmaps-runs.jsonl")


class TestCheck:
    def test_positive_plane(self, capsys):
        assert main(["check", "--triple", CASE46]) == 0
        out = capsys.readouterr().out
        assert "label: 1" in out
        assert "unruly pencil" not in out

    def test_negative_plane_lists_pencils(self, capsys):
        assert main(["check", "--case", "six", "--triple", SIX_E1_E2_E3]) == 0
        out = capsys.readouterr().out
        assert "label: 0" in out
        # one line per unruly pencil, by the pair it was tested on
        assert [line for line in out.splitlines() if line.startswith("unruly pencil")] == [
            "unruly pencil: a=(0, 0, 1) b=(0, 1, 0)",
            "unruly pencil: a=(0, 0, 1) b=(1, 0, 0)",
            "unruly pencil: a=(0, 1, 0) b=(1, 0, 0)",
        ]

    def test_bound_below_exhaustive_is_inconclusive(self, capsys):
        # at bound 2 two pencils of case 46 show no witness, yet its label is 1
        assert main(["check", "--triple", CASE46, "--scan-bound", "2"]) == 1
        out = capsys.readouterr().out
        assert "label: 0" not in out
        assert "label: inconclusive (scan bound 2 < 9" in out
        assert "no witness up to degree 2: a=(0, 0, 1) b=(1, 1, 0)" in out
        assert out.count("no witness up to degree 2:") == 2

    def test_six_point_plane_label_zero_at_exhaustive_bound(self, capsys):
        argv = ["check", "--case", "six", "--triple", "0,1,0,0;0,0,1,0;0,0,0,1", "--scan-bound", "9"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "label: 0" in out
        assert "unruly pencil: a=(0, 0, 1) b=(1, 0, 0)" in out

    # recorded from test_pencil before the scans read one point per Frobenius orbit
    CASE46_WITNESSES = [
        "pencil a=(0, 0, 1) b=(0, 1, 0): not_unruly witness [1:1:0] over GF(2)",
        "pencil a=(0, 0, 1) b=(1, 0, 0): not_unruly witness [1:1:1] over GF(2)",
        "pencil a=(0, 0, 1) b=(1, 1, 0): not_unruly witness [3:6:1] over GF(8)",
        "pencil a=(0, 1, 0) b=(1, 0, 0): positive_dimensional",
        "pencil a=(0, 1, 0) b=(1, 0, 1): not_unruly witness [0:1:1] over GF(2)",
        "pencil a=(0, 1, 1) b=(1, 0, 0): not_unruly witness [8:12:1] over GF(16)",
        "pencil a=(0, 1, 1) b=(1, 0, 1): not_unruly witness [2:1:1] over GF(4)",
    ]
    SIX_PLANE_WITNESSES = [
        "pencil a=(0, 0, 1) b=(0, 1, 0): positive_dimensional",
        "pencil a=(0, 0, 1) b=(1, 0, 0): unruly",
        "pencil a=(0, 0, 1) b=(1, 1, 0): not_unruly witness [2:3:1] over GF(4)",
        "pencil a=(0, 1, 0) b=(1, 0, 0): not_unruly witness [1:1:1] over GF(2)",
        "pencil a=(0, 1, 0) b=(1, 0, 1): unruly",
        "pencil a=(0, 1, 1) b=(1, 0, 0): not_unruly witness [1:0:1] over GF(2)",
        "pencil a=(0, 1, 1) b=(1, 0, 1): not_unruly witness [0:1:1] over GF(2)",
    ]

    def test_witness_five_point_plane(self, capsys):
        assert main(["check", "--triple", CASE46, "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["label: 1"] + self.CASE46_WITNESSES

    def test_witness_six_point_plane(self, capsys):
        argv = ["check", "--case", "six", "--triple", "0,1,0,0;0,0,1,0;0,0,0,1", "--witness"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "label: 0"
        assert out[1:3] == ["unruly pencil: a=(0, 0, 1) b=(1, 0, 0)",
                            "unruly pencil: a=(0, 1, 0) b=(1, 0, 1)"]
        assert out[3:] == self.SIX_PLANE_WITNESSES

    def test_witness_below_exhaustive_bound_claims_no_unruly_pencil(self, capsys):
        argv = ["check", "--case", "six", "--triple", "0,1,0,0;0,0,1,0;0,0,0,1",
                "--witness", "--scan-bound", "2"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert ": unruly" not in out
        assert "pencil a=(0, 0, 1) b=(1, 0, 0): no witness up to degree 2" in out
        assert "pencil a=(0, 0, 1) b=(1, 1, 0): not_unruly witness [2:3:1] over GF(4)" in out

    def test_manifest_counts_verdicts_and_witness_degrees(self):
        main(["check", "--triple", CASE46])
        main(["check", "--case", "six", "--triple", "0,1,0,0;0,0,1,0;0,0,0,1", "--scan-bound", "9"])
        five, six = manifest_entries()
        for entry in (five, six):
            assert entry["subcommand"] == "check"
            assert set(entry["stages"]) == {"label_s"}
            assert entry["stages"]["label_s"] >= 0
        # the counts of CASE46_WITNESSES and SIX_PLANE_WITNESSES
        # each plane's walk scans 6 members on the one chunk of levels 1..9
        assert five["counters"] == {
            "pencils": 7, "unruly": 0, "not_unruly": 6, "positive_dimensional": 1,
            "witness_degree": {"d1": 3, "d2": 1, "d3": 1, "d4": 1}, "scanned_points": 6 * 40896,
        }
        assert six["counters"] == {
            "pencils": 7, "unruly": 2, "not_unruly": 4, "positive_dimensional": 1,
            "witness_degree": {"d1": 3, "d2": 1}, "scanned_points": 6 * 40896,
        }
        assert (five["label"], six["label"]) == (1, 0)

    def test_manifest_of_an_inconclusive_check_claims_no_unruly_pencil(self):
        # case 46 is label 1, but at bound 2 two of its pencils show no witness
        assert main(["check", "--triple", CASE46, "--scan-bound", "2"]) == 1
        entry = manifest_entries()[-1]
        assert entry["label"] is None
        # 6 members on the levels 1..2 of the chunk: 7 + 14 points
        assert entry["counters"] == {
            "pencils": 7, "no_witness": 2, "not_unruly": 4, "positive_dimensional": 1,
            "witness_degree": {"d1": 3, "d2": 1}, "scanned_points": 6 * 21,
        }

    def test_without_witness_flag_no_pencil_lines(self, capsys):
        assert main(["check", "--triple", CASE46]) == 0
        assert "pencil a=" not in capsys.readouterr().out

    def test_malformed_triple(self, capsys):
        assert main(["check", "--triple", "1,0,0,0,0;0,0,0,1,0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["check", "--triple", "1,,0,0,0;0,0,0,1,0;1,1,0,0,1"]) == 2
        captured = capsys.readouterr()
        assert "malformed vector '1,,0,0,0'" in captured.err
        assert captured.out == ""

    def test_wrong_length_triple(self, capsys):
        assert main(["check", "--case", "six", "--triple", CASE46]) == 2
        assert "length 4" in capsys.readouterr().err

    def test_out_of_range_entries(self):
        assert main(["check", "--triple", "2,0,0,0,0;0,0,0,1,0;1,1,0,0,1"]) == 2

    def test_inadmissible_triple(self, capsys):
        dependent = "1,0,0,0,0;1,0,0,0,0;1,1,0,0,1"
        assert main(["check", "--triple", dependent]) == 2
        assert "admissible" in capsys.readouterr().err

    def test_custom_requires_points(self, capsys):
        assert main(["check", "--case", "custom", "--triple", CASE46]) == 2
        assert "--points" in capsys.readouterr().err

    def test_custom_duplicate_points_rejected(self):
        points = "0,0,1;0,0,1;0,1,1;1,0,1;1,1,1"
        rc = main(["check", "--case", "custom", "--points", points, "--triple", CASE46])
        assert rc == 2


class TestBoundsBelowOne:
    def test_check_scan_bound_zero(self, capsys):
        # at bound 0 no level is scanned and case 46 printed label 0
        assert main(["check", "--triple", CASE46, "--scan-bound", "0"]) == 2
        captured = capsys.readouterr()
        assert "label:" not in captured.out
        assert "--scan-bound: must be at least 1" in captured.err

    def test_oracle_source_bound_zero(self, capsys):
        # at bound 0 the oracle reported 3 uncovered targets for case 46
        assert main(["oracle", "--triple", CASE46, "--source-bound", "0"]) == 2
        captured = capsys.readouterr()
        assert "uncovered" not in captured.out
        assert "--source-bound: must be at least 1" in captured.err

    @pytest.mark.parametrize("argv", [
        ["oracle", "--all", "--case", "six", "--scan-bound", "-1"],
        ["train", "--data", "six.txt", "--epochs", "-3"],
        ["check", "--triple", CASE46, "--scan-bound", "nine"],
    ])
    def test_flags_reject_values_below_one(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_run_is_recorded(self):
        main(["check", "--triple", CASE46, "--scan-bound", "0"])
        with pytest.raises(FileNotFoundError):
            manifest_entries()


class TestBoundsAboveNine:
    # no base point of two coprime cubics lies above level 9 (Bezout):
    # `oracle --all --case six --scan-bound 11` scanned levels 10 and 11
    # for 1.07 s against 0.035 s at bound 9, with the same output
    @pytest.mark.parametrize("argv", [
        ["check", "--triple", CASE46, "--scan-bound", "10"],
        ["oracle", "--all", "--case", "six", "--scan-bound", "11"],
        ["oracle", "--triple", CASE46, "--source-bound", "10"],
        ["oracle", "--all", "--case", "five", "--source-bound", "15"],
    ])
    def test_refused(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be at most 9" in captured.err and "Bezout's bound" in captured.err
        assert captured.out == ""
        with pytest.raises(FileNotFoundError):
            manifest_entries()


class TestScanBoundBelowExhaustive:
    # at scan bound 2 `oracle --all` reported 5 disagreements: pencils with no
    # witness up to degree 2 became label 0.  At source bound 1 the oracle
    # listed 3 uncovered targets for case 46, which has none, and at source
    # bound 2 `oracle --all` reported 5 disagreements.  Bound 8 is the last
    # refused value.
    @pytest.mark.parametrize("argv", [
        ["oracle", "--triple", CASE46, "--source-bound", "8"],
        ["oracle", "--all", "--case", "six", "--source-bound", "8"],
        ["oracle", "--all", "--case", "five", "--scan-bound", "2"],
        ["oracle", "--all", "--case", "six", "--scan-bound", "8"],
        ["oracle", "--triple", CASE46, "--source-bound", "1"],
        ["oracle", "--all", "--case", "five", "--source-bound", "2"],
    ])
    def test_refused(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "below the exhaustive bound 9" in captured.err
        assert captured.out == ""
        assert not os.path.exists("x.txt")
        with pytest.raises(FileNotFoundError):
            manifest_entries()

    def test_oracle_triple_ignores_scan_bound(self, capsys):
        # a single-plane oracle report runs no labeling scan
        assert main(["oracle", "--triple", CASE46, "--scan-bound", "2"]) == 0
        assert "uncovered targets: 0" in capsys.readouterr().out

    def test_exhaustive_bound_accepted(self, capsys):
        # the oracle-gf2 benchmark workload passes both bounds explicitly
        argv = ["oracle", "--all", "--case", "six", "--scan-bound", "9", "--source-bound", "9"]
        assert main(argv) == 0
        assert "0 disagreements" in capsys.readouterr().out.splitlines()

    def test_dataset_takes_no_scan_bound(self, capsys):
        # a dataset label is proved only at the exhaustive bound, so the bound is not a flag
        assert main(["dataset", "--case", "six", "--scan-bound", "9", "--out", "x.txt"]) == 2
        assert "unrecognized arguments: --scan-bound 9" in capsys.readouterr().err
        assert not os.path.exists("x.txt")


class TestOracle:
    def test_single_triple(self, capsys):
        assert main(["oracle", "--triple", CASE46]) == 0
        assert "uncovered targets: 0" in capsys.readouterr().out

    def test_uncovered_targets_listed(self, capsys):
        assert main(["oracle", "--case", "six", "--triple", SIX_E1_E2_E3]) == 0
        out = capsys.readouterr().out
        assert "uncovered targets: 3" in out
        assert "[0:0:1]" in out and "[0:1:0]" in out and "[1:0:0]" in out
        entry = manifest_entries()[-1]
        assert entry["subcommand"] == "oracle"
        assert set(entry["stages"]) == {"oracle_s"}
        assert entry["stages"]["oracle_s"] >= 0
        assert entry["counters"] == {"uncovered_targets": 3}

    def test_full_sweep_six(self, capsys):
        assert main(["oracle", "--case", "six", "--all"]) == 0
        out = capsys.readouterr().out
        assert "planes checked: 15" in out
        assert "0 disagreements" in out
        entry = manifest_entries()[-1]
        assert set(entry["stages"]) == {"label_s", "oracle_s"}
        assert all(seconds >= 0 for seconds in entry["stages"].values())
        # all 15 six-point planes are labeled 0; together they miss 30 targets
        assert entry["counters"] == {"planes": 15, "disagreements": 0, "uncovered_targets": 30,
                                     "system_pencils": 35, "member_zero_sets": 12,
                                     "scanned_points": 12 * 40896,
                                     "pencil_tests": 30, "key_lookups": 48, "witness_points": 7}

    def test_full_sweep_five_counts_key_lookups(self):
        assert main(["oracle", "--case", "five", "--all"]) == 0
        counters = manifest_entries()[-1]["counters"]
        assert (counters["key_lookups"], counters["system_pencils"]) == (647, 155)

    @pytest.mark.parametrize("case, planes, disagreements", [("five", 150, 144), ("six", 15, 15)])
    def test_full_sweep_catches_a_memo_that_always_shares_a_factor(self, capsys, monkeypatch,
                                                                   case, planes, disagreements):
        # every pencil then reads positive-dimensional and every plane is labeled 1,
        # while the oracle's own covering scan still finds the planes' uncovered targets
        monkeypatch.setattr(SystemPencils, "shares_factor", lambda self, key: True)
        assert main(["oracle", "--case", case, "--all"]) == 1
        out = capsys.readouterr().out
        assert f"planes checked: {planes}" in out
        assert out.count("DISAGREEMENT: plane") == disagreements
        assert f"{disagreements} disagreements" in out

    def test_full_sweep_flags_a_label_0_whose_pencil_normal_is_covered(self, capsys, monkeypatch):
        # a stand-in oracle leaves only [1:1:1] uncovered on every plane, so every
        # six-point plane has some uncovered target, yet only the planes whose
        # first unruly pencil has normal [1:1:1] agree with it
        def only_one_uncovered(plane, source_bound):
            return [ProjPoint(plane.field, (1, 1, 1))]

        want = 0
        cfg = EnumConfig(SIX_POINT)
        for plane in _iter_admissible_planes(cfg, SystemPencils(cfg.system)):
            normal = ProjPoint(plane.field, pencil_normal(*label_plane(plane).unruly_pencils[0]))
            want += normal != only_one_uncovered(plane, 9)[0]
        assert 0 < want <= 15
        monkeypatch.setattr("cubicmaps.cli.forward_oracle", only_one_uncovered)
        assert main(["oracle", "--case", "six", "--all"]) == 1
        out = capsys.readouterr().out
        assert out.count("DISAGREEMENT: plane") == want
        assert f"{want} disagreements" in out

    def test_full_sweep_custom_with_all_pencils_positive_dimensional(self, capsys):
        argv = ["oracle", "--all", "--case", "custom", "--p", "2", "--points", GF2_SIX_POINTS]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "planes checked: 11" in out
        assert "0 disagreements" in out

    # 155 and 15 subspaces (see test_linsys); 5 five-point ones share a factor
    @pytest.mark.parametrize("case, planes", [(FIVE_POINT, 150), (SIX_POINT, 15)])
    def test_admissible_plane_counts(self, case, planes):
        cfg = EnumConfig(case)
        got = [plane.vectors for plane in _iter_admissible_planes(cfg, SystemPencils(cfg.system))]
        assert len(got) == len(set(got)) == planes
        assert all(len(rows) == 3 for rows in got)

    def test_requires_triple_or_all(self, capsys):
        assert main(["oracle"]) == 2
        assert "--triple or --all" in capsys.readouterr().err


class TestTrainPredict:
    def test_round_trip(self, capsys):
        main(["dataset", "--case", "six", "--out", "six.txt"])
        rc = main(["train", "--data", "six.txt", "--epochs", "1",
                   "--model-out", "model.ckpt", "--history-out", "loss.csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained on 268 records, held out 68" in out
        assert "test mse:" in out
        with open("loss.csv") as fh:
            assert fh.readline().strip() == "epoch,train_mse"
        entry = manifest_entries()[-1]
        assert entry["subcommand"] == "train"
        assert set(entry["stages"]) == {"train_s", "checkpoint_s", "evaluate_s"}
        assert all(seconds >= 0 for seconds in entry["stages"].values())
        # 268 training records in batches of 32 take 9 Adam steps per epoch
        assert entry["counters"] == {"epochs": 1, "adam_steps": 9, "train_records": 268}

        assert main(["predict", "--model", "model.ckpt", "--triple", SIX_E1_E2_E3]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == value  # finite, parseable

    def test_predict_wrong_width(self, capsys):
        main(["dataset", "--case", "six", "--out", "six.txt"])
        main(["train", "--data", "six.txt", "--epochs", "1", "--model-out", "model.ckpt"])
        capsys.readouterr()
        assert main(["predict", "--model", "model.ckpt", "--triple", CASE46]) == 2
        assert "length 4" in capsys.readouterr().err

    def test_predict_missing_model(self, capsys):
        assert main(["predict", "--model", "nope.ckpt", "--triple", SIX_E1_E2_E3]) == 2
        assert "error:" in capsys.readouterr().err

    def test_train_rejects_bad_epochs(self, capsys):
        main(["dataset", "--case", "six", "--out", "six.txt"])
        assert main(["train", "--data", "six.txt", "--epochs", "0"]) == 2


class TestVerifyAndStats:
    def test_verify_five(self, capsys):
        assert main(["verify", "--case", "five"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_all_with_targets(self, capsys):
        assert main(["verify", "--case", "all", "--targets"]) == 0
        out = capsys.readouterr().out
        assert out.count("numeric spot checks worst residual") == 2
        entry = manifest_entries()[-1]
        assert entry["subcommand"] == "verify"
        assert set(entry["stages"]) == {"certify_s", "numeric_s"}
        assert all(seconds >= 0 for seconds in entry["stages"].values())
        # 15 checks for five_point and 18 for six_point; four spot targets per map
        assert entry["counters"] == {"cases": 2, "checks": 33, "failed_checks": 0,
                                     "numeric_targets": 8}

    def test_stats(self, capsys):
        main(["dataset", "--case", "six", "--out", "six.txt"])
        capsys.readouterr()
        assert main(["stats", "--data", "six.txt"]) == 0
        out = capsys.readouterr().out
        assert "count: 336" in out
        assert "positives: 0" in out

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "--data", "missing.txt"]) == 2
        assert "error:" in capsys.readouterr().err


class TestModuleEntryPoint:
    def _run(self, *argv):
        src = os.path.dirname(os.path.dirname(cubicmaps.__file__))
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        return subprocess.run([sys.executable, "-m", "cubicmaps", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_version(self):
        done = self._run("--version")
        assert done.returncode == 0
        assert cubicmaps.__version__ in done.stdout

    def test_usage_error_exits_2(self):
        done = self._run("check", "--scan-bound", "0", "--triple", CASE46)
        assert done.returncode == 2
        assert "--scan-bound" in done.stderr

"""Command-line interface: output formats, exit codes, and plumbing."""
import json

import pytest

from newton_strata.cli import main, parse_matrix
from newton_strata.isocrystal import SlopeSeq, slope_sequence
from newton_strata.affine_weyl import AffineWeylElt, coset_pattern
from newton_strata.series import TruncatedSeries

P = 11


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSlopes:
    def test_diagonal_inline(self, capsys):
        code, out, _ = run(capsys, "slopes", "diag(t^-1, 1, t^1)")
        assert code == 0
        assert "slopes: 1,0,-1" in out
        assert "polygon:" in out and "(3,0)" in out

    def test_identity_matrix(self, capsys):
        code, out, _ = run(capsys, "slopes", "diag(1,1,1)")
        assert code == 0 and "slopes: 0,0,0" in out

    def test_full_matrix_rows_json(self, capsys):
        code, out, _ = run(
            capsys, "slopes", "t^-1, t^-1, t^-2; 1, 0, 0; 0, t^2, 0", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["slopes"] == "1,0,-1"
        assert doc["polygon"][0] == [0, "0"]

    def test_matrix_file_input(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("diag(t^2, 1, t^-2)")
        code, out, _ = run(capsys, "slopes", str(f))
        assert code == 0 and "slopes: 2,0,-2" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "slopes", "diag(t^-1, 1)")
        assert code == 2 and "parse error" in err

    def test_domain_error_for_nonunit_det(self, capsys):
        code, _, err = run(capsys, "slopes", "diag(t, 1, t)")
        assert code == 4 and "domain error" in err


class TestPoset:
    def test_two_element_listing(self, capsys):
        code, out, _ = run(capsys, "poset", "mu=-2,0,2;w=s121")
        assert code == 0
        assert "nu_x: 1,0,-1" in out
        assert "elements (2): 1,0,-1; 0,0,0" in out
        assert "cover: 0,0,0 -> 1,0,-1" in out

    def test_singleton_listing(self, capsys):
        code, out, _ = run(capsys, "poset", "mu=0,0,0;w=s1")
        assert code == 0 and "elements (1): 0,0,0" in out

    def test_dot_output_counts(self, capsys):
        code, out, _ = run(capsys, "poset", "mu=-2,0,2;w=s12", "--dot")
        assert code == 0
        from newton_strata.strata import poset_of

        pos = poset_of(AffineWeylElt.parse("mu=-2,0,2;w=s12"))
        assert out.count("label=") == len(pos.elements)
        assert out.count("->") == len(pos.hasse)

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "poset", "mu=-2,0,2;w=s121", "--json")
        doc = json.loads(out)
        assert doc["nu_x"] == "1,0,-1" and len(doc["elements"]) == 2

    def test_bad_element_is_parse_error(self, capsys):
        code, _, err = run(capsys, "poset", "mu=1,1,1;w=s1")
        assert code == 2


class TestCodim:
    def test_headline_with_both_formulas(self, capsys):
        code, out, _ = run(capsys, "codim", "mu=-2,0,2;w=s121", "0,0,0", "--both")
        assert code == 0
        assert "codim: 1" in out
        assert "roottheoretic: 1" in out
        assert "exceptional: yes" in out

    def test_non_exceptional_neighbor(self, capsys):
        code, out, _ = run(capsys, "codim", "mu=-2,0,2;w=s12", "0,0,0", "--both")
        assert code == 0
        assert "codim: 2" in out and "roottheoretic: 2" in out
        assert "exceptional: no" in out

    def test_half_integral_exception_json(self, capsys):
        code, out, _ = run(
            capsys, "codim", "mu=-4,2,2;w=s12", "1,-1/2,-1/2", "--both", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["codim"] == 3 and doc["roottheoretic"] == 3
        assert doc["exceptional"] is True

    def test_generic_stratum_is_codim_zero(self, capsys):
        code, out, _ = run(capsys, "codim", "mu=-2,0,2;w=s121", "1,0,-1")
        assert code == 0 and "codim: 0" in out

    def test_foreign_slopes_exit_domain(self, capsys):
        code, _, err = run(capsys, "codim", "mu=-2,0,2;w=s121", "2,0,-2")
        assert code == 4


class TestAdlv:
    def test_identity_b_nonempty(self, capsys):
        code, out, _ = run(capsys, "adlv", "mu=-2,0,2;w=s121", "--b", "diag(1,1,1)")
        assert code == 0 and "nonempty" in out

    def test_identity_b_empty(self, capsys):
        code, out, _ = run(capsys, "adlv", "mu=-1,0,1;w=s1", "--b", "diag(1,1,1)")
        assert code == 1 and "empty" in out

    def test_lam_at_generic_is_nonempty(self, capsys):
        code, out, _ = run(capsys, "adlv", "mu=-1,0,1;w=s1", "--lam", "1/2,1/2,-1")
        assert code == 0 and "nonempty" in out

    def test_default_b_is_identity(self, capsys):
        code, out, _ = run(capsys, "adlv", "mu=-2,0,2;w=s121")
        assert code == 0 and "b slopes: 0,0,0" in out


class TestWitness:
    def test_witness_verified_and_parseable(self, capsys):
        code, out, _ = run(capsys, "witness", "mu=-2,0,2;w=s121", "0,0,0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        rows = [
            [TruncatedSeries.from_text(P, cell) for cell in row] for row in doc["matrix"]
        ]
        from newton_strata.isocrystal import IsoMatrix

        W = IsoMatrix(rows)
        x = AffineWeylElt.parse("mu=-2,0,2;w=s121")
        assert coset_pattern(x, "xI").contains(W)
        assert slope_sequence(W) == SlopeSeq.parse("0,0,0")

    def test_witness_for_absent_slopes_is_empty(self, capsys):
        code, out, _ = run(capsys, "witness", "mu=-1,0,1;w=s1", "0,0,0")
        assert code == 1 and "empty" in out


class TestSample:
    def test_histogram_json_deterministic(self, capsys):
        argv = ("sample", "mu=-2,0,2;w=s121", "--trials", "400", "--seed", "5", "--json")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert a["histogram"] == b["histogram"]
        assert a["trials"] == 400

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "sample", "mu=-2,0,2;w=s121", "--trials", "200", "--csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "lam1,lam2,lam3,count"

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NEWTON_STRATA_SEED", "5")
        argv = ("sample", "mu=-2,0,2;w=s121", "--trials", "400", "--json")
        _, from_env, _ = run(capsys, *argv)
        monkeypatch.delenv("NEWTON_STRATA_SEED")
        _, explicit, _ = run(capsys, *argv, "--seed", "5")
        assert json.loads(from_env)["histogram"] == json.loads(explicit)["histogram"]

    def test_ixi_mode_runs(self, capsys):
        code, out, _ = run(
            capsys, "sample", "mu=-2,0,2;w=s121", "--mode", "IxI", "--trials", "100", "--json"
        )
        assert code == 0 and json.loads(out)["trials"] == 100


class TestCampaignAndTables:
    def test_campaign_small_filter(self, capsys):
        code, out, _ = run(
            capsys, "campaign", "--bound", "1", "--cases", "VIA", "--trials", "30", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and not doc["mismatches"]

    def test_campaign_undecided_draw_exits_precision(self, capsys, monkeypatch):
        from newton_strata import empirics
        from newton_strata.series import InsufficientPrecision

        def undecided(A):
            raise InsufficientPrecision("forced")

        monkeypatch.setattr(empirics, "slope_sequence", undecided)
        code, _, err = run(capsys, "campaign", "--bound", "1", "--trials", "5")
        assert code == 3 and "precision error" in err

    def test_tables_slice_contains_known_row(self, capsys):
        code, out, _ = run(capsys, "tables", "--w", "s12", "--bound", "2")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("mu=-2,0,2;w=s12 "))
        assert "nu_x=1,0,-1" in line and "full" in line and "C0" in line

    def test_tables_translation_rows_are_singletons(self, capsys):
        code, out, _ = run(capsys, "tables", "--w", "1", "--bound", "1")
        assert code == 0
        assert all("singleton" in l for l in out.splitlines() if l.startswith("mu="))

    def test_tables_verify_small_slice(self, capsys):
        code, out, _ = run(
            capsys, "tables", "--w", "s121", "--bound", "1", "--verify",
            "--trials", "300", "--seed", "1",
        )
        assert code == 0
        assert "MISMATCH" not in out

    def test_tables_verify_at_small_prime(self, capsys):
        # at p = 2 the mode of mu=-2,0,2;w=s121 is 0,0,0, not nu_x = 1,0,-1;
        # the check is support in N(G)_x with nu_x sampled
        code, out, _ = run(
            capsys, "tables", "--w", "s121", "--bound", "2", "--verify",
            "--p", "2", "--trials", "4000",
        )
        assert code == 0
        assert "MISMATCH" not in out and out.count("  ok") == 19


class TestParseMatrix:
    def test_json_matrix_roundtrip(self):
        A = parse_matrix("diag(t^-1, 1, t^1)", P)
        doc = json.dumps(A.to_json())
        B = parse_matrix(doc, P)
        assert all(A[i, j] == B[i, j] for i in range(3) for j in range(3))

    def test_series_entries_with_sums(self):
        A = parse_matrix("1 + 2*t^1, 0, 0; 0, 1, 0; 0, 0, 1", P)
        assert A[0, 0].coeff(1) == 2

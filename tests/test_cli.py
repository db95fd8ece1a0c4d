import random
import subprocess
import sys
import textwrap

import pytest

from stacky_brauer.abelian import FinAbGroup
from stacky_brauer.cli import (
    build_report_lines,
    main,
    parse_coefficients,
    parse_group_spec,
    parse_input,
)
from stacky_brauer.errors import InputFormatError

SMOOTH_DOC = textwrap.dedent("""\
    [curve]
    smooth = true
    proper = true
    genus = 2
    characteristic = 0
    [gerbe]
    r = 2
    [point.a]
    group = cyclic:3
    [point.b]
    group = cyclic:3
    """)

NODE_DOC = textwrap.dedent("""\
    [curve]
    smooth = false
    proper = true
    h1_stack = 0
    [gerbe]
    r = 2
    [point.node]
    group = semidirect_z2:4:3
    singular = true
    extension = split
    """)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stacky_brauer", *args],
        capture_output=True, text=True)


class TestParsing:
    def test_minimal_document(self):
        doc = parse_input("[curve]\nsmooth = true\nproper = true\ngenus = 1\n"
                          "[gerbe]\nr = 2\n")
        assert doc.smooth and doc.proper and doc.genus == 1 and doc.r == 2
        assert doc.points == []

    def test_round_trip(self):
        for text in (SMOOTH_DOC, NODE_DOC):
            doc = parse_input(text)
            again = parse_input(doc.to_text())
            assert again == doc
            assert again.to_text() == doc.to_text()

    def test_unknown_key_positioned(self):
        with pytest.raises(InputFormatError) as err:
            parse_input("[curve]\nsmooth = true\nproper = true\ngenus = 1\n"
                        "color = blue\n[gerbe]\nr = 2\n")
        assert err.value.line == 5
        assert "color" in str(err.value)

    def test_noncyclic_smooth_point_rejected(self):
        text = ("[curve]\nsmooth = true\nproper = true\ngenus = 0\n"
                "[gerbe]\nr = 2\n[point.p]\ngroup = product:cyclic:2*cyclic:2\n")
        with pytest.raises(InputFormatError) as err:
            parse_input(text)
        assert "non-cyclic" in str(err.value)

    def test_tameness_rejected(self):
        text = ("[curve]\nsmooth = true\nproper = true\ngenus = 0\n"
                "characteristic = 2\n[gerbe]\nr = 3\n"
                "[point.p]\ngroup = cyclic:4\n")
        with pytest.raises(InputFormatError) as err:
            parse_input(text)
        assert "characteristic 2" in str(err.value)

    def test_bad_semidirect_action(self):
        with pytest.raises(InputFormatError) as err:
            parse_group_spec("semidirect_z2:5:2", line=3)
        assert err.value.line == 3

    def test_group_specs(self):
        assert parse_group_spec("cyclic:6").order == 6
        assert parse_group_spec("product:cyclic:2*cyclic:3").order == 6
        assert parse_group_spec("product:product:cyclic:2*cyclic:2*cyclic:2").order == 8
        assert parse_group_spec("semidirect_z2:4:3").order == 8
        with pytest.raises(InputFormatError):
            parse_group_spec("octonions:8")

    def test_coefficient_specs(self):
        assert str(parse_coefficients("Z")) == "Z"
        assert str(parse_coefficients("Z/6")) == "Z/6"
        assert str(parse_coefficients("units")) == "units"
        with pytest.raises(InputFormatError):
            parse_coefficients("Q")

    def test_h1_factor_lists(self):
        doc = parse_input("[curve]\nsmooth = false\nproper = true\n"
                          "h1_stack = 2,4\n[gerbe]\nr = 2\n")
        assert doc.h1_stack == FinAbGroup(0, (2, 4))
        doc0 = parse_input("[curve]\nsmooth = false\nproper = true\n"
                           "h1_stack = 0\n[gerbe]\nr = 2\n")
        assert doc0.h1_stack.is_trivial


class TestGroupAndCocycleFiles:
    def test_table_file(self, tmp_path):
        path = tmp_path / "z3.grp"
        path.write_text("order 3\n0 1 2\n1 2 0\n2 0 1\n")
        G = parse_group_spec(f"table:{path}")
        assert G.order == 3 and G.is_cyclic

    def test_table_identity_must_be_zero(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("order 2\n1 0\n0 1\n")
        with pytest.raises(InputFormatError):
            parse_group_spec(f"table:{path}")

    def test_cocycle_file(self, tmp_path):
        grp = tmp_path / "z2.grp"
        grp.write_text("order 2\n0 1\n1 0\n")
        coc = tmp_path / "c.coc"
        coc.write_text("modulus 2\n0 0\n0 1\n")
        text = (f"[curve]\nsmooth = false\nproper = true\nh1_stack = 0\n"
                f"[gerbe]\nr = 2\n[point.p]\ngroup = table:{grp}\n"
                f"singular = true\nextension = cocycle:{coc}\n")
        doc = parse_input(text)
        spec = doc.curve_spec()
        assert spec.points[0].extension.total.order == 4

    def test_cocycle_modulus_mismatch(self, tmp_path):
        grp = tmp_path / "z2.grp"
        grp.write_text("order 2\n0 1\n1 0\n")
        coc = tmp_path / "c.coc"
        coc.write_text("modulus 3\n0 0\n0 0\n")
        text = (f"[curve]\nsmooth = false\nproper = true\nh1_stack = 0\n"
                f"[gerbe]\nr = 2\n[point.p]\ngroup = table:{grp}\n"
                f"singular = true\nextension = cocycle:{coc}\n")
        with pytest.raises(InputFormatError):
            parse_input(text)


class TestEndToEnd:
    def test_smooth_run(self, tmp_path):
        inp = tmp_path / "smooth.txt"
        inp.write_text(SMOOTH_DOC)
        rpt = tmp_path / "smooth.rpt"
        proc = run_cli("brauer", "--input", str(inp), "--report", str(rpt))
        assert proc.returncode == 0, proc.stderr
        assert "Z/2 + Z/2 + Z/2 + Z/2" in proc.stdout
        report = rpt.read_text()
        assert "status = determined" in report
        assert "result = Z/2 + Z/2 + Z/2 + Z/2" in report
        assert "splitting = smooth-shortcut" in report

    def test_byte_stability(self, tmp_path):
        inp = tmp_path / "smooth.txt"
        inp.write_text(SMOOTH_DOC)
        r1, r2 = tmp_path / "a.rpt", tmp_path / "b.rpt"
        p1 = run_cli("brauer", "--input", str(inp), "--report", str(r1))
        p2 = run_cli("brauer", "--input", str(inp), "--report", str(r2))
        assert p1.returncode == 0 and p2.returncode == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_node_run(self, tmp_path):
        inp = tmp_path / "node.txt"
        inp.write_text(NODE_DOC)
        rpt = tmp_path / "node.rpt"
        proc = run_cli("brauer", "--input", str(inp), "--report", str(rpt))
        assert proc.returncode == 0, proc.stderr
        report = rpt.read_text()
        assert "result = Z/2" in report
        assert "fiber.node.h3-inflation-injective = true" in report

    def test_missing_h1_exit_code(self, tmp_path):
        inp = tmp_path / "bad.txt"
        inp.write_text("[curve]\nsmooth = false\nproper = true\n[gerbe]\nr = 2\n"
                       "[point.p]\ngroup = cyclic:2\nsingular = true\n")
        rpt = tmp_path / "bad.rpt"
        proc = run_cli("brauer", "--input", str(inp), "--report", str(rpt))
        assert proc.returncode == 1
        assert "error-code = missing-h1" in rpt.read_text()

    def test_partial_exit_code(self, tmp_path):
        grp = tmp_path / "z2.grp"
        grp.write_text("order 2\n0 1\n1 0\n")
        coc = tmp_path / "z4.coc"
        coc.write_text("modulus 2\n0 0\n0 1\n")
        inp = tmp_path / "partial.txt"
        inp.write_text(
            f"[curve]\nsmooth = false\nproper = true\nh1_stack = 2\n"
            f"[gerbe]\nr = 2\n[point.x]\ngroup = cyclic:2\nsingular = true\n"
            f"extension = cocycle:{coc}\n")
        proc = run_cli("brauer", "--input", str(inp))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "partial" in proc.stdout

    def test_cohomology_command(self):
        proc = run_cli("cohomology", "cyclic:6", "3", "units", "--verify")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Z/6"
        proc2 = run_cli("cohomology", "semidirect_z2:4:3", "2", "units")
        assert proc2.returncode == 0 and proc2.stdout.strip() == "Z/2"
        proc3 = run_cli("cohomology", "cyclic:5", "2", "units")
        assert proc3.returncode == 0 and proc3.stdout.strip() == "0"

    def test_cohomology_cap_override(self):
        proc = run_cli("cohomology", "cyclic:6", "3", "units",
                       "--max-entries", "100")
        assert proc.returncode == 1
        assert "cap" in proc.stderr.lower()

    def test_huge_degree_is_refused_before_the_power(self, tmp_path):
        # (|G|-1)^(n+1) for n = 99999999999 must not be formed
        rpt = tmp_path / "huge.rpt"
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "cohomology", "cyclic:4",
             "99999999999", "Z", "--report", str(rpt)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "error-code = resource-cap" in rpt.read_text().splitlines()

    def test_cohomology_cap_counts_unreduced_d_out(self):
        # H^3(Z/6, kx) = H^4(Z/6, Z): d_out has 5^5 = 3125 rows, under the
        # cap, but 16240 nonzeros, over it, although only d_in is eliminated
        proc = run_cli("cohomology", "cyclic:6", "3", "units",
                       "--max-entries", "10000")
        assert proc.returncode == 1
        assert "matrix nonzeros" in proc.stderr

    def test_report_lines_cover_fibers(self, tmp_path):
        doc = parse_input(NODE_DOC)
        from stacky_brauer.curves import brauer_report
        rep = brauer_report(doc.curve_spec(), doc.r)
        lines = build_report_lines(doc, rep, NODE_DOC)
        keys = {ln.split(" = ")[0] for ln in lines}
        for needed in ("format-version", "input-sha256", "status", "result",
                       "left-term", "right-term", "is-root-gerbe",
                       "right-exact", "splitting",
                       "fiber.node.bockstein"):
            assert needed in keys, needed


class TestUnreadableOrUnwritableFiles:
    def test_unwritable_report_is_an_error_not_a_traceback(self, tmp_path):
        inp = tmp_path / "smooth.txt"
        inp.write_text(SMOOTH_DOC)
        rpt = tmp_path / "missing" / "x.rpt"
        for args in (("brauer", "--input", str(inp)),
                     ("cohomology", "cyclic:4", "2", "Z")):
            proc = run_cli(*args, "--report", str(rpt))
            assert proc.returncode == 1, (args, proc.stderr)
            assert "Traceback" not in proc.stderr, args
            assert "error: cannot write report:" in proc.stderr, args

    def test_undecodable_input_is_an_error_not_a_traceback(self, tmp_path):
        inp = tmp_path / "binary.txt"
        inp.write_bytes(b"[curve]\nsmooth = true\xff\xfe\n")
        proc = run_cli("brauer", "--input", str(inp))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: cannot read input:" in proc.stderr


NODE_Z2_DOC = textwrap.dedent("""\
    [curve]
    smooth = false
    proper = true
    h1_stack = 0
    [gerbe]
    r = 2
    [point.node]
    group = cyclic:2
    singular = true
    extension = split
    """)

FUZZ_VALUES = ("", "x", "-1", "0", "1", "true", "2,0", "cyclic:0", "product:cyclic:2*")


# cohomology argv parts: valid and malformed group specs (no large order),
# degrees and coefficients
COH_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:4", "product:cyclic:2*cyclic:2",
              "semidirect_z2:3:2", "", "cyclic:", "cyclic:0", "cyclic:-3",
              "cyclic:x", "semidirect_z2:4", "semidirect_z2:4:2",
              "product:cyclic:2*", "table:missing.tbl", "bogus")
COH_DEGREES = ("-1", "0", "3", str(10 ** 11), "x", "3.5")
COH_COEFFICIENTS = ("Z", "units", "Z/0", "Z/4", "", "Z/", "Z/x", "Q", "units2")


def _mutant(rng, text):
    """One random edit of a document; none of them enlarges a group order."""
    lines = text.splitlines()
    op = rng.randrange(5)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        return text[:rng.randrange(len(text) + 1)]
    else:
        valued = [k for k, line in enumerate(lines) if "=" in line]
        k = rng.choice(valued)
        lines[k] = lines[k].partition("=")[0] + "= " + rng.choice(FUZZ_VALUES)
    return "\n".join(lines) + "\n"


class TestFuzz:
    def test_mutated_documents_end_in_an_exit_code_and_a_report(self, tmp_path):
        rng = random.Random(2024)
        inp, rpt = tmp_path / "doc.txt", tmp_path / "doc.rpt"
        codes = set()
        for n in range(300):
            text = _mutant(rng, (SMOOTH_DOC, NODE_Z2_DOC)[n % 2])
            inp.write_text(text)
            rpt.unlink(missing_ok=True)
            code = main(["brauer", "--input", str(inp), "--report", str(rpt)])
            assert code in (0, 1, 2), text
            assert rpt.read_text().startswith("format-version = "), text
            codes.add(code)
        assert codes >= {0, 1}, codes

    def test_mutated_cohomology_arguments_end_in_an_exit_code_and_a_report(self, tmp_path):
        rng = random.Random(2025)
        rpt = tmp_path / "coh.rpt"
        codes = set()
        for _ in range(300):
            argv = [rng.choice(COH_GROUPS), rng.choice(COH_DEGREES),
                    rng.choice(COH_COEFFICIENTS)]
            rpt.unlink(missing_ok=True)
            code = main(["cohomology", *argv, "--report", str(rpt)])
            assert code in (0, 1, 2), argv
            assert rpt.read_text().startswith("format-version = "), argv
            codes.add(code)
        assert codes >= {0, 1}, codes

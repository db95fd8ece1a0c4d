import hashlib
import os
import random
import stat
import subprocess
import sys
import textwrap
from importlib import import_module

import pytest

from stacky_brauer.abelian import FinAbGroup, Subquotient
from stacky_brauer.cli import (
    build_report_lines,
    main,
    parse_coefficients,
    parse_group_spec,
    parse_input,
)
from stacky_brauer.cohomology import enumerate_extension_classes
from stacky_brauer.errors import InputFormatError, TamenessError, ValidationError
from stacky_brauer.groups import central_extension

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

    @pytest.mark.parametrize("text, line, where", [
        ("[curve]\nsmooth = true\nproper = true\ngenus = 1\n"
         "color = blue\n[gerbe]\nr = 2\n", 5, "[curve]"),
        ("[curve]\nsmooth = true\nproper = true\ngenus = 1\n"
         "[gerbe]\nr = 2\ncolor = blue\n", 7, "[gerbe]"),
        ("[curve]\nsmooth = true\nproper = true\ngenus = 1\n[gerbe]\nr = 2\n"
         "[point.p]\ngroup = cyclic:2\ncolor = blue\n", 9, "[point.p]"),
    ], ids=["curve", "gerbe", "point"])
    def test_unknown_key_positioned(self, text, line, where):
        with pytest.raises(InputFormatError) as err:
            parse_input(text)
        assert err.value.line == line
        assert f"unknown key 'color' in {where}" in str(err.value)

    @pytest.mark.parametrize("text, line, where", [
        ("[curve]\nsmooth = true\nproper = true\ngenus = 1\ngenus = 2\n"
         "[gerbe]\nr = 2\n", 5, "'genus' in [curve]"),
        ("[curve]\nsmooth = true\nproper = true\ngenus = 1\n"
         "[gerbe]\nr = 2\nr = 3\n", 7, "'r' in [gerbe]"),
        ("[curve]\nsmooth = true\nproper = true\ngenus = 1\n[gerbe]\nr = 2\n"
         "[point.p]\ngroup = cyclic:2\n[point.q]\ngroup = cyclic:2\n"
         "group = cyclic:3\n", 11, "'group' in [point.q]"),
    ])
    def test_repeated_key_positioned(self, text, line, where):
        with pytest.raises(InputFormatError) as err:
            parse_input(text)
        assert err.value.line == line
        assert f"duplicate key {where}" in str(err.value)

    def test_repeated_extension_does_not_keep_the_first(self, tmp_path):
        # a repeated extension key once kept the deferred cocycle of the first
        (tmp_path / "c.coc").write_text("modulus 2\n0 0\n0 1\n")
        head = ("[curve]\nsmooth = false\nproper = true\nh1_stack = 2\n"
                "[gerbe]\nr = 2\n[point.node]\ngroup = cyclic:2\nsingular = true\n")
        cocycle = f"extension = cocycle:{tmp_path / 'c.coc'}\n"
        inp, rpt = tmp_path / "doc.txt", tmp_path / "doc.rpt"
        for body, code, line in ((cocycle, 2, "result-subgroup = 0"),
                                 ("extension = split\n", 0, "result = Z/2"),
                                 (cocycle + "extension = split\n", 1,
                                  "error-message = line 11: duplicate key "
                                  "'extension' in [point.node]")):
            inp.write_text(head + body)
            assert main(["brauer", "--input", str(inp), "--report", str(rpt)]) == code
            assert line in rpt.read_text().splitlines()

    def test_noncyclic_smooth_point_rejected(self):
        # semantic errors keep their own kind, not InputFormatError
        text = ("[curve]\nsmooth = true\nproper = true\ngenus = 0\n"
                "[gerbe]\nr = 2\n[point.p]\ngroup = product:cyclic:2*cyclic:2\n")
        with pytest.raises(ValidationError) as err:
            parse_input(text)
        assert "non-cyclic" in str(err.value)

    def test_tameness_rejected(self):
        text = ("[curve]\nsmooth = true\nproper = true\ngenus = 0\n"
                "characteristic = 2\n[gerbe]\nr = 3\n"
                "[point.p]\ngroup = cyclic:4\n")
        with pytest.raises(TamenessError) as err:
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

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_a_cap_below_one_writes_an_error_report(self, tmp_path, cap):
        # the refusal is a validation error of the command, reported with the
        # input-sha256 its other errors carry: the document's text for brauer,
        # the three arguments, space-joined, for cohomology
        inp = tmp_path / "node.txt"
        inp.write_text(NODE_DOC)
        runs = ((["brauer", "--input", str(inp)], NODE_DOC),
                (["cohomology", "cyclic:4", "2", "Z"], "cyclic:4 2 Z"))
        for argv, hashed in runs:
            rpt = tmp_path / f"{argv[0]}.rpt"
            proc = run_cli(*argv, "--max-entries", cap, "--report", str(rpt))
            assert proc.returncode == 1, (argv, proc.stdout + proc.stderr)
            assert proc.stderr.splitlines() == ["error: resource cap must be positive"]
            assert "Traceback" not in proc.stderr
            assert rpt.read_text().splitlines() == [
                "format-version = 1",
                f"input-sha256 = {hashlib.sha256(hashed.encode()).hexdigest()}",
                "status = error",
                "error-code = validation",
                "error-message = resource cap must be positive",
            ]

    def test_report_past_the_bar_caps(self, tmp_path):
        # H^3(Z/50, Z)'s bar d_out has 49^4 rows, over the default cap; the
        # report reads every value off the free resolutions
        inp, rpt = tmp_path / "node50.txt", tmp_path / "node50.rpt"
        inp.write_text(NODE_DOC.replace("semidirect_z2:4:3", "cyclic:50")
                       .replace("h1_stack = 0", "h1_stack = 2"))
        proc = run_cli("brauer", "--input", str(inp), "--report", str(rpt))
        assert proc.returncode == 0, proc.stderr
        assert "result = Z/2" in rpt.read_text().splitlines()

    def test_huge_degree_is_refused_before_the_power(self, tmp_path):
        # (|G|-1)^(n+1) for n = 99999999999 must not be formed
        rpt = tmp_path / "huge.rpt"
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "cohomology", "cyclic:4",
             "99999999999", "Z", "--report", str(rpt)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "error-code = resource-cap" in rpt.read_text().splitlines()

    def test_large_genus_is_answered_at_once(self, tmp_path):
        # H^1 = (Z/2)^40000: its factors already form a chain, so putting them
        # in canonical form takes one pass, not a gcd exchange test per pair
        # (3.3 s at genus 4000, growing with the square of the genus)
        inp, rpt = tmp_path / "g.txt", tmp_path / "g.rpt"
        inp.write_text(SMOOTH_DOC.replace("genus = 2", "genus = 20000"))
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "brauer", "--input", str(inp),
             "--report", str(rpt)], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        result = next(line for line in rpt.read_text().splitlines()
                      if line.startswith("result = "))
        assert result == "result = " + " + ".join(["Z/2"] * 40000)

    def test_huge_genus_is_refused_before_its_factors(self, tmp_path):
        # 2 * 10^7 factors of H^1 are charged to the cap before they are listed
        inp, rpt = tmp_path / "g.txt", tmp_path / "g.rpt"
        inp.write_text(SMOOTH_DOC.replace("genus = 2", "genus = 10000000"))
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "brauer", "--input", str(inp),
             "--report", str(rpt)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error-code = resource-cap" in rpt.read_text().splitlines()

    @pytest.mark.parametrize("twos, code", [(4000, 1), (2000, 0)])
    def test_an_override_that_is_no_chain_is_charged_to_the_cap(self, tmp_path, capsys,
                                                                twos, code):
        # [2] * n + [3] sorted is no chain: the gcd/lcm exchange over its
        # n(n+1)/2 pairs is charged to the cap first (8,002,000 pairs at
        # n = 4000, over the default 5,000,000; 2,001,000 at n = 2000)
        factors = ",".join(["2"] * twos + ["3"])
        inp, rpt = tmp_path / "h1.txt", tmp_path / "h1.rpt"
        inp.write_text(SMOOTH_DOC.replace("characteristic = 0\n",
                                          f"characteristic = 0\nh1_stack = {factors}\n"))
        assert main(["brauer", "--input", str(inp), "--report", str(rpt)]) == code
        lines = rpt.read_text().splitlines()
        if code:
            assert "error-code = resource-cap" in lines
            assert "error: size 8002000 exceeds resource cap 5000000 " \
                   "(invariant factor pairs)" in capsys.readouterr().err
        else:
            # the override in canonical form: (Z/2)^1999 + Z/6
            assert "right-term-source = override-stack" in lines
            assert "right-term = " + " + ".join(["Z/2"] * 1999 + ["Z/6"]) in lines

    def test_huge_group_order_is_refused_before_the_table(self, tmp_path):
        # cyclic:10000000 must not build a 10^7 x 10^7 table, nor a table
        # file announcing that order have its rows read
        tbl = tmp_path / "huge.tbl"
        tbl.write_text("order 10000000\n0\n")
        rpt = tmp_path / "huge.rpt"
        for spec in ("cyclic:10000000", f"table:{tbl}"):
            proc = subprocess.run(
                [sys.executable, "-m", "stacky_brauer", "cohomology", spec,
                 "2", "Z", "--report", str(rpt)],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1, (spec, proc.stderr)
            assert "Traceback" not in proc.stderr
            assert "error-code = resource-cap" in rpt.read_text().splitlines()

    def test_large_extension_group_degrades_instead_of_failing(self, tmp_path):
        # the split extension of Z/2 by Z/100 has order 200: its free
        # resolution's degree-2 kernel step eliminates a d_2 with 21,200
        # nonzeros, refused under a cap of 1000, so only h2-units-total
        # reads unknown; under the default cap it is H_2(Z/2 x Z/100) = Z/2
        inp = tmp_path / "big_r.txt"
        inp.write_text(NODE_DOC.replace("r = 2", "r = 100")
                       .replace("semidirect_z2:4:3", "cyclic:2"))
        rpt = tmp_path / "big_r.rpt"
        proc = run_cli("brauer", "--input", str(inp), "--report", str(rpt),
                       "--max-entries", "1000")
        assert proc.returncode == 0, proc.stderr
        lines = rpt.read_text().splitlines()
        assert "fiber.node.h2-units-total = unknown" in lines
        assert "status = determined" in lines
        proc = run_cli("brauer", "--input", str(inp), "--report", str(rpt))
        assert proc.returncode == 0, proc.stderr
        assert "fiber.node.h2-units-total = Z/2" in rpt.read_text().splitlines()

    def test_order_48_extension_group_reports_its_schur_multiplier(self, tmp_path):
        # H_2(Z/2 x Z/24) = Z/2, off the free resolution of E in well under
        # a second; the bar complex of E took 26 s and 680 MB
        inp = tmp_path / "r24.txt"
        inp.write_text(NODE_DOC.replace("r = 2", "r = 24")
                       .replace("semidirect_z2:4:3", "cyclic:2"))
        rpt = tmp_path / "r24.rpt"
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "brauer", "--input", str(inp),
             "--report", str(rpt)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "fiber.node.h2-units-total = Z/2" in rpt.read_text().splitlines()

    def test_verify_skips_a_full_bar_oracle_over_its_budget(self, tmp_path):
        # H^3(Dic12, kx) = H^4(Dic12, Z): the full-bar d_out would be
        # 248,832 x 20,736, over the oracle's elimination budget, so the
        # value is checked only by the class build off the bar complex
        S3 = parse_group_spec("semidirect_z2:3:2")
        E = central_extension(S3, 2, enumerate_extension_classes(S3, 2)[1]).total
        tbl = tmp_path / "dic12.tbl"
        tbl.write_text(f"order {E.order}\n"
                       + "".join(" ".join(map(str, row)) + "\n" for row in E.table))
        rpt = tmp_path / "dic12.rpt"
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "cohomology", f"table:{tbl}",
             "3", "units", "--verify", "--report", str(rpt)],
            capture_output=True, text=True, timeout=90)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Z/12"
        lines = rpt.read_text().splitlines()
        assert "verify.status = ok" in lines
        assert not [ln for ln in lines if ln.startswith("verify.full-bar")], lines

    def test_values_are_read_off_the_free_resolution(self, tmp_path):
        # H^3(Dic12, kx) = H^4(Dic12, Z) = H_3(Dic12, Z), off the free
        # resolution of Dic12; the bar route took 5.7 s and 313 MB
        S3 = parse_group_spec("semidirect_z2:3:2")
        E = central_extension(S3, 2, enumerate_extension_classes(S3, 2)[1]).total
        tbl = tmp_path / "dic12.tbl"
        tbl.write_text(f"order {E.order}\n"
                       + "".join(" ".join(map(str, row)) + "\n" for row in E.table))
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "cohomology", f"table:{tbl}",
             "3", "units"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Z/12"
        # the trivial group holds nothing a degree, but a walk through
        # 10^11 degrees is still charged: refused before it starts
        rpt = tmp_path / "huge.rpt"
        proc = subprocess.run(
            [sys.executable, "-m", "stacky_brauer", "cohomology", "cyclic:1",
             "100000000000", "Z", "--report", str(rpt)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "error-code = resource-cap" in rpt.read_text().splitlines()

    def test_cohomology_cap_counts_unreduced_d_out(self):
        # H^3(Z/6, kx) = H^4(Z/6, Z): d_out has 5^5 = 3125 rows, under the
        # cap, but 16240 nonzeros, over it, although only d_in is eliminated.
        # Only the class build (--verify) builds d_out; the value is read
        # off the free resolution of Z/6
        argv = ("cohomology", "cyclic:6", "3", "units", "--max-entries", "10000")
        proc = run_cli(*argv, "--verify")
        assert proc.returncode == 1
        assert "size 16240 exceeds resource cap 10000 (matrix nonzeros)" in proc.stderr
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Z/6"

    def test_mod_m_cap_counts_the_augmented_d_out(self):
        # H^2(Z/6, Z/4): d_out has 440 nonzeros and 125 rows; the class
        # build (--verify) is refused exactly where the cycle elimination of
        # d_out augmented by 4*I (565 nonzeros) is.  The value builds no bar
        # matrix
        argv = ("cohomology", "cyclic:6", "2", "Z/4")
        proc = run_cli(*argv, "--max-entries", "564", "--verify")
        assert proc.returncode == 1
        assert "size 565 exceeds resource cap 564 (matrix nonzeros)" in proc.stderr
        for cap in ("564", "565"):
            proc = run_cli(*argv, "--max-entries", cap)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "Z/2"
        proc = run_cli(*argv, "--max-entries", "565", "--verify")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "Z/2"

    def test_mod_m_verify_builds_the_deferred_classes(self, tmp_path, monkeypatch):
        # a homology_at whose quotient disagrees with the value is caught by
        # --verify only: without it the classes are never built (the package
        # namespace shadows the module with the function of that name)
        coh = import_module("stacky_brauer.cohomology")

        real = coh.homology_at

        def wrong(d_out, d_in, modulus=0):
            sq = real(d_out, d_in, modulus=modulus)
            return Subquotient(sq.ambient_dim, FinAbGroup.cyclic(7), sq.classes())

        monkeypatch.setattr(coh, "homology_at", wrong)
        rpt = tmp_path / "zm.rpt"
        argv = ["cohomology", "cyclic:4", "2", "Z/2", "--report", str(rpt)]
        coh.clear_cache()
        assert main(argv) == 0
        assert "value = Z/2" in rpt.read_text().splitlines()
        coh.clear_cache()
        assert main(argv + ["--verify"]) == 1
        lines = rpt.read_text().splitlines()
        assert "error-code = validation" in lines
        coh.clear_cache()

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

    def test_report_write_leaves_no_temporary_file(self, tmp_path, capsys,
                                                   monkeypatch):
        # the report is written next to the target and renamed over it
        out = tmp_path / "out"
        out.mkdir()
        rpt = out / "x.rpt"
        rpt.write_text("old report\n")
        assert main(["cohomology", "cyclic:4", "2", "Z", "--report", str(rpt)]) == 0
        assert [p.name for p in out.iterdir()] == ["x.rpt"]
        assert "value = Z/4" in rpt.read_text().splitlines()
        # a target that cannot be written (a directory): exit 1, no leftover
        blocked = out / "blocked.rpt"
        blocked.mkdir()
        capsys.readouterr()
        assert main(["cohomology", "cyclic:4", "2", "Z", "--report", str(blocked)]) == 1
        assert "error: cannot write report:" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["blocked.rpt", "x.rpt"]
        assert not any(blocked.iterdir())
        # a rename that fails after the temporary file is written: removed,
        # and the old report is kept whole
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr("stacky_brauer.cli.os.replace", refuse)
        assert main(["cohomology", "cyclic:3", "2", "Z", "--report", str(rpt)]) == 1
        assert "error: cannot write report:" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["blocked.rpt", "x.rpt"]
        assert "value = Z/4" in rpt.read_text().splitlines()

    def test_report_through_a_symlink_keeps_the_link(self, tmp_path):
        real = tmp_path / "real.rpt"
        real.write_text("old report\n")
        link = tmp_path / "link.rpt"
        link.symlink_to(real)
        assert main(["cohomology", "cyclic:4", "2", "Z", "--report", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert "value = Z/4" in real.read_text().splitlines()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.rpt", "real.rpt"]

    def test_report_to_a_fifo_is_written_through(self, tmp_path):
        # a non-regular target is written directly, not replaced by a file
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["cohomology", "cyclic:4", "2", "Z", "--report", str(fifo)]) == 0
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert "value = Z/4" in text.splitlines()
        assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]

    def test_undecodable_input_is_an_error_not_a_traceback(self, tmp_path):
        inp = tmp_path / "binary.txt"
        inp.write_bytes(b"[curve]\nsmooth = true\xff\xfe\n")
        proc = run_cli("brauer", "--input", str(inp))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: cannot read input:" in proc.stderr

    @pytest.mark.parametrize("kind", ["table", "cocycle"])
    def test_undecodable_group_or_cocycle_file_is_a_parse_error(self, tmp_path, capsys,
                                                                kind):
        grp = tmp_path / "z2.grp"
        grp.write_text("order 2\n0 1\n1 0\n")
        coc = tmp_path / "c.coc"
        coc.write_text("modulus 2\n0 0\n0 1\n")
        (grp if kind == "table" else coc).write_bytes(b"\xff\xfe")
        inp = tmp_path / "doc.txt"
        inp.write_text(f"[curve]\nsmooth = false\nproper = true\nh1_stack = 0\n"
                       f"[gerbe]\nr = 2\n[point.p]\ngroup = table:{grp}\n"
                       f"singular = true\nextension = cocycle:{coc}\n")
        rpt = tmp_path / "x.rpt"
        assert main(["brauer", "--input", str(inp), "--report", str(rpt)]) == 1
        assert f"error: cannot read {'group table' if kind == 'table' else kind}" \
            in capsys.readouterr().err
        assert "error-code = parse" in rpt.read_text().splitlines()


class TestMalformedSemidirectSpec:
    """A semidirect_z2 spec whose parts are not integers is a parse error
    with a report, from the command line and from a document alike."""

    def test_cohomology_command(self, tmp_path, capsys):
        rpt = tmp_path / "x.rpt"
        assert main(["cohomology", "semidirect_z2:4:x", "2", "Z",
                     "--report", str(rpt)]) == 1
        assert "expects an integer, got 'x'" in capsys.readouterr().err
        assert "error-code = parse" in rpt.read_text().splitlines()

    def test_document(self, tmp_path, capsys):
        inp = tmp_path / "doc.txt"
        inp.write_text(NODE_DOC.replace("semidirect_z2:4:3", "semidirect_z2:4:x"))
        rpt = tmp_path / "x.rpt"
        assert main(["brauer", "--input", str(inp), "--report", str(rpt)]) == 1
        assert "expects an integer, got 'x'" in capsys.readouterr().err
        assert "error-code = parse" in rpt.read_text().splitlines()


class TestRepeatedCalls:
    """main is called many times in one process: one parser, no state
    carried from one call to the next."""

    def test_resource_cap_ends_with_its_call(self, capsys):
        abelian = import_module("stacky_brauer.abelian")
        assert main(["cohomology", "cyclic:4", "2", "Z", "--max-entries", "10"]) == 1
        assert main(["cohomology", "semidirect_z2:4:3", "3", "Z"]) == 0
        assert capsys.readouterr().out.strip() == "Z/2"
        assert abelian._MAX_ENTRIES.get() == 5_000_000

    def test_each_namespace_holds_only_its_own_flags(self, tmp_path, monkeypatch):
        cli = import_module("stacky_brauer.cli")
        seen = []
        monkeypatch.setattr(cli, "run_brauer", lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(cli, "run_cohomology", lambda args: seen.append(vars(args)) or 0)
        inp, rpt = str(tmp_path / "doc.txt"), str(tmp_path / "A")
        main(["brauer", "--input", inp, "--verify", "--char", "0", "--report", rpt])
        main(["cohomology", "cyclic:4", "2", "Z"])
        main(["brauer", "--input", inp])
        assert seen == [
            dict(command="brauer", input=inp, report=rpt, max_entries=None,
                 char=0, verify=True),
            dict(command="cohomology", group="cyclic:4", degree="2",
                 coefficients="Z", report=None, max_entries=None, char=None,
                 verify=False),
            dict(command="brauer", input=inp, report=None, max_entries=None,
                 char=None, verify=False),
        ]

    def test_usage_errors_match_a_fresh_parser(self, capsys):
        cli = import_module("stacky_brauer.cli")
        main(["cohomology", "cyclic:2", "1", "Z"])
        capsys.readouterr()
        for argv in ([], ["brauer", "--input", "x", "--bogus"],
                     ["cohomology", "cyclic:2"], ["--help"], ["brauer", "--help"]):
            with pytest.raises(SystemExit) as reused:
                main(argv)
            out = capsys.readouterr()
            with pytest.raises(SystemExit) as fresh:
                cli._parser.__wrapped__().parse_args(argv)
            assert reused.value.code == fresh.value.code == (0 if "--help" in argv else 2)
            assert capsys.readouterr() == out, argv


class TestCurveSpecOnce:
    """A brauer run builds the document's CurveSpec once, in parse_input."""

    def test_a_run_builds_it_once(self, tmp_path, monkeypatch):
        cli = import_module("stacky_brauer.cli")
        built = []
        original = cli.InputDocument.curve_spec

        def counting(doc):
            built.append(doc.characteristic)
            return original(doc)

        monkeypatch.setattr(cli.InputDocument, "curve_spec", counting)
        inp, rpt = tmp_path / "doc.txt", tmp_path / "doc.rpt"
        inp.write_text(SMOOTH_DOC)
        assert main(["brauer", "--input", str(inp), "--report", str(rpt)]) == 0
        assert main(["brauer", "--input", str(inp), "--char", "5", "--report", str(rpt)]) == 0
        assert built == [0, 0]
        assert "characteristic = 5" in rpt.read_text().splitlines()

    @pytest.mark.parametrize("char, code, message", [
        ("3", 1, "characteristic 3 divides |G| = 3 at point 'a'"),
        ("1", 1, "characteristic must be 0 or a prime"),
        ("2", 1, "characteristic 2 divides the gerbe modulus 2"),
        ("5", 0, None),
    ])
    def test_an_overriding_characteristic_is_validated(self, tmp_path, capsys,
                                                       char, code, message):
        inp, rpt = tmp_path / "doc.txt", tmp_path / "doc.rpt"
        inp.write_text(SMOOTH_DOC)
        assert main(["brauer", "--input", str(inp), "--char", char,
                     "--report", str(rpt)]) == code
        lines = rpt.read_text().splitlines()
        if message is None:
            # the report of a document that states the characteristic itself
            written = tmp_path / "written.txt"
            written.write_text(SMOOTH_DOC.replace("characteristic = 0",
                                                  f"characteristic = {char}"))
            assert main(["brauer", "--input", str(written), "--report", str(rpt)]) == 0
            assert [x for x in lines if not x.startswith("input-sha256")] == \
                [x for x in rpt.read_text().splitlines() if not x.startswith("input-sha256")]
            assert capsys.readouterr().err == ""
        else:
            assert lines[-3:] == ["status = error", "error-code = validation",
                                  f"error-message = {message}"]
            assert capsys.readouterr().err == f"error: {message}\n"


class TestCharacteristicIsZeroOrPrime:
    # wherever a characteristic is given, and for every coefficient kind;
    # composites such as 9, 4 and 25 are refused like values below 2
    NOT_PRIME = ["9", "4", "25", "-1", "1"]
    REFUSED = ["status = error", "error-code = validation",
               "error-message = characteristic must be 0 or a prime"]

    @pytest.mark.parametrize("char", NOT_PRIME)
    def test_brauer_refuses_it_from_the_flag_and_the_document(self, tmp_path, capsys, char):
        inp, rpt = tmp_path / "doc.txt", tmp_path / "doc.rpt"
        inp.write_text(SMOOTH_DOC)
        assert main(["brauer", "--input", str(inp), "--char", char, "--report", str(rpt)]) == 1
        assert rpt.read_text().splitlines()[-3:] == self.REFUSED
        # a document's semantic errors are validation errors too
        inp.write_text(SMOOTH_DOC.replace("characteristic = 0", f"characteristic = {char}"))
        assert main(["brauer", "--input", str(inp), "--report", str(rpt)]) == 1
        assert rpt.read_text().splitlines()[-3:] == self.REFUSED
        assert capsys.readouterr().err == "error: characteristic must be 0 or a prime\n" * 2

    @pytest.mark.parametrize("coefficients", ["units", "Z", "Z/2"])
    @pytest.mark.parametrize("char", NOT_PRIME)
    def test_cohomology_refuses_it_for_every_coefficient_kind(self, tmp_path, capsys,
                                                              char, coefficients):
        rpt = tmp_path / "coh.rpt"
        assert main(["cohomology", "cyclic:3", "2", coefficients, "--char", char,
                     "--report", str(rpt)]) == 1
        assert rpt.read_text().splitlines()[-3:] == self.REFUSED
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("char", ["0", "2", "5", "1000000007"])
    def test_zero_and_primes_pass(self, tmp_path, capsys, char):
        inp, rpt = tmp_path / "doc.txt", tmp_path / "doc.rpt"
        inp.write_text(SMOOTH_DOC)
        code = 1 if char == "2" else 0     # 2 divides the gerbe modulus
        assert main(["brauer", "--input", str(inp), "--char", char, "--report", str(rpt)]) == code
        assert (f"characteristic = {char}" in rpt.read_text().splitlines()) == (code == 0)
        for coefficients, value in (("units", "Z/3"), ("Z", "0"), ("Z/2", "0")):
            assert main(["cohomology", "cyclic:3", "1", coefficients, "--char", char]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == value

    def test_tameness_still_binds_units_only(self, capsys):
        assert main(["cohomology", "cyclic:3", "1", "units", "--char", "3"]) == 1
        assert capsys.readouterr().err == "error: characteristic 3 divides the group order 3\n"
        assert main(["cohomology", "cyclic:3", "1", "Z/3", "--char", "3"]) == 0
        assert capsys.readouterr().out == "Z/3\n"

    def test_trial_division_is_charged_to_the_resource_cap(self, tmp_path, capsys):
        # 1000003 is prime: 500 odd trial divisors up to its square root
        rpt = tmp_path / "coh.rpt"
        argv = ["cohomology", "cyclic:3", "1", "units", "--char", "1000003",
                "--report", str(rpt)]
        assert main(argv + ["--max-entries", "100"]) == 1
        assert "error-code = resource-cap" in rpt.read_text().splitlines()
        assert main(argv) == 0
        assert capsys.readouterr().out == "Z/3\n"


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


# cohomology argv parts: valid and malformed group specs (the one large
# order is refused by the resource cap before its table is built),
# degrees and coefficients
COH_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:4", "product:cyclic:2*cyclic:2",
              "semidirect_z2:3:2", "", "cyclic:", "cyclic:0", "cyclic:-3",
              "cyclic:x", "semidirect_z2:4", "semidirect_z2:4:2",
              "product:cyclic:2*", "table:missing.tbl", "bogus", "cyclic:10000000")
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
        capped = 0
        for _ in range(300):
            argv = [rng.choice(COH_GROUPS), rng.choice(COH_DEGREES),
                    rng.choice(COH_COEFFICIENTS)]
            rpt.unlink(missing_ok=True)
            code = main(["cohomology", *argv, "--report", str(rpt)])
            assert code in (0, 1, 2), argv
            report = rpt.read_text()
            assert report.startswith("format-version = "), argv
            if argv[0] == "cyclic:10000000":
                # the group is parsed first, and refused by its order
                assert "error-code = resource-cap" in report.splitlines(), argv
                capped += 1
            codes.add(code)
        assert capped, "the large order was never drawn"
        assert codes >= {0, 1}, codes

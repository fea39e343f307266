import math
import os
import string
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csc_matrix

from towerlab import cli, periodic as per, suspension as sp, tower as tw
from towerlab.transfer import operators
from towerlab.transfer.towerop import TowerGrid


@pytest.fixture()
def pm_config(tmp_path):
    cfg = tmp_path / "pm.ini"
    cfg.write_text(textwrap.dedent("""\
        [map]
        kind = pm
        alpha = 0.5
        Y = 0.5,1.0
        J = 120
        tail_horizon = 3000
        [basis]
        depth = 2
        refine = 12
        [tower]
        N = 12
        [roof]
        kind = cosine
        [observables]
        v = coordinate
        w = coordinate
        [grids]
        N_list = 5,10
        t_grid = 2,5
        n_max = 60
        s = 0.1j
        n_list = 1,4
        b_grid = 2,8
        omega_grid = 0
        symbols = 0,1
        q_max = 3
        [run]
        seed = 99
        samples = 20000
        """))
    return str(cfg)


@pytest.fixture()
def doubling_config(tmp_path):
    cfg = tmp_path / "db.ini"
    cfg.write_text(textwrap.dedent("""\
        [map]
        kind = doubling
        Y = 0.5,1.0
        J = 30
        tail_horizon = 600
        [basis]
        depth = 2
        refine = 8
        [roof]
        kind = power_singularity
        beta = 1.0
        [observables]
        v = coordinate
        w = coordinate
        [grids]
        N_list = 5,10
        t_grid = 2,5
        q_log = 5.0
        [run]
        seed = 7
        samples = 20000
        """))
    return str(cfg)


def run(args):
    return cli.main(args)


def test_usage_without_subcommand():
    assert run([]) == 1


def test_unknown_subcommand_usage_exit():
    assert run(["frobnicate", "--config", "x"]) == 1


@pytest.mark.parametrize("extra", [["--bogus", "1"], ["--threads", "1"],
                                   ["--seed", "x"]])
def test_bad_flag_is_usage_error(pm_config, tmp_path, extra, capsys):
    # argparse alone would exit 2, the code of a failed check
    assert run(["corr-flow", "--config", pm_config,
                "--out", str(tmp_path)] + extra) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "corr_flow.csv").exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--threads" not in out
    assert "tail only" in out      # where --strict has a meaning


@pytest.mark.parametrize("sub,flag,value", [
    pytest.param("corr-flow", "--strict", None, id="corr-flow"),
    pytest.param("renewal", "--strict", None, id="renewal"),
    pytest.param("accept", "--strict", None, id="accept"),
    pytest.param("renewal", "--seed", "5", id="renewal-seed"),
    pytest.param("tail", "--seed", "5", id="tail-seed"),
    pytest.param("accept", "--config", "x.ini", id="accept-config"),
])
def test_strict_off_tail_is_usage_error(sub, flag, value, pm_config,
                                        tmp_path, capsys):
    # a flag is refused where no handler reads it: there it would be a
    # silent no-op (only tail reads --strict, only the four sampling and
    # scanning subcommands read --seed, accept reads no config)
    out = tmp_path / "out"
    argv = [sub, "--out", str(out), flag] + ([value] if value else [])
    if sub != "accept":
        argv += ["--config", pm_config]
    assert run(argv) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_tail_strict_still_checks(pm_config, doubling_config, tmp_path):
    # power-law pm tail passes; the doubling map's exponential tail fails
    assert run(["tail", "--config", pm_config, "--out",
                str(tmp_path / "pm"), "--strict"]) == 0
    assert (tmp_path / "pm" / "tail.csv").exists()
    assert run(["tail", "--config", doubling_config, "--out",
                str(tmp_path / "db"), "--strict"]) == 2
    assert run(["tail", "--config", doubling_config, "--out",
                str(tmp_path / "db2")]) == 0


def test_missing_config_is_config_error(tmp_path):
    assert run(["induce", "--config", str(tmp_path / "nope.ini"),
                "--out", str(tmp_path)]) == 3


def _not_converged():
    raise ArithmeticError("Perron pair not converged")


def _singular_solve():
    # LinAlgError subclasses ValueError but is not a config error
    np.linalg.solve(np.zeros((2, 2)), np.ones(2))


@pytest.mark.parametrize("fail", [_not_converged, _singular_solve])
def test_numerical_failure_is_not_config_error(tmp_path, pm_config, fail,
                                              monkeypatch, capsys):
    monkeypatch.setitem(cli.HANDLERS, "induce", lambda run: fail())
    assert run(["induce", "--config", pm_config,
                "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "config error" not in err


def test_missing_seed_is_config_error(tmp_path, pm_config):
    text = open(pm_config).read().replace("seed = 99", "")
    bad = tmp_path / "noseed.ini"
    bad.write_text(text)
    assert run(["corr-flow", "--config", str(bad),
                "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("sub,artifact", [
    ("induce", "cells.csv"),
    ("tail", "tail.csv"),
    ("tower", "tower.csv"),
    ("truncate", "truncate.csv"),
    ("corr-map", "corr_map.csv"),
    ("corr-flow", "corr_flow.csv"),
    ("trunc-error", "trunc_error.csv"),
    ("renewal", "renewal.csv"),
    ("decomp", "decomp.csv"),
    ("laplace", "laplace.csv"),
    ("budget", "budget.csv"),
    ("periodic", "periodic.csv"),
])
def test_subcommands_write_artifacts(sub, artifact, pm_config, tmp_path):
    out = tmp_path / "out"
    assert run([sub, "--config", pm_config, "--out", str(out)]) == 0
    assert (out / artifact).exists()


def test_unstable_constant_over_underflowed_bounds_fails(pm_config, tmp_path,
                                                        monkeypatch, capsys):
    # every ratio inf made stable_within nan, and nan > 3.0 let exit 0 by
    rows = sp._rows(10, np.array([5.0]), [(1e-3, 1e-4)], [(0.0, 1e-4)],
                    lambda t: 1e-320)
    table = sp.TruncationTable(rows, *sp._ratio_stability(rows),
                               kept_fraction=1.0, oob={}, reflowed={})
    monkeypatch.setattr(sp, "truncation_error_experiment",
                        lambda *args, **kwargs: table)
    assert run(["trunc-error", "--config", pm_config,
                "--out", str(tmp_path / "out")]) == 2
    assert "unstable" in capsys.readouterr().err


@pytest.mark.parametrize("sub,config", [("trunc-error", "pm_config"),
                                        ("roof-trunc", "doubling_config")])
def test_truncation_gate_with_no_significant_row_fails(sub, config, request,
                                                       tmp_path, capsys):
    # at 100 samples no row has measured > 2 stderr: the stability gate
    # tested nothing, and passed it with "stable within 1.00" (exit 0)
    cfg = tmp_path / "few.ini"
    cfg.write_text(open(request.getfixturevalue(config)).read()
                   .replace("samples = 20000", "samples = 100"))
    assert run([sub, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "no row is noise-significant" in capsys.readouterr().err


@pytest.mark.parametrize("sub,config,key,value", [
    ("truncate", "pm_config", "N_list", "0,5"),      # no key named
    ("truncate", "pm_config", "N_list", "-3,5"),
    ("trunc-error", "pm_config", "N_list", "0,5"),   # no key named
    ("trunc-error", "pm_config", "N_list", "-3,5"),
    ("roof-trunc", "doubling_config", "N_list", "0,5"),   # exit 4
    ("roof-trunc", "doubling_config", "N_list", "-3,5"),  # math domain
    ("decomp", "pm_config", "n_list", "-1,4"),       # no section named
])
def test_grid_list_below_its_least_names_its_key(sub, config, key, value,
                                                  request, tmp_path, capsys):
    cfg = tmp_path / "low.ini"
    text = open(request.getfixturevalue(config)).read()
    old = {"N_list": "N_list = 5,10", "n_list": "n_list = 1,4"}[key]
    cfg.write_text(text.replace(old, f"{key} = {value}"))
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    assert f"config error: [grids] {key} = {value}: " in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub,old,key,value", [
    ("induce", "J = 120", "[map] J", "-5"),         # 2990 cells, exit 0
    ("induce", "J = 120", "[map] J", "0"),          # no key named
    ("induce", "tail_horizon = 3000", "[map] tail_horizon", "0"),
    ("resolvent", "depth = 2", "[basis] depth", "0"),
    ("resolvent", "refine = 12", "[basis] refine", "-1"),  # numpy message
])
def test_cutoff_or_refinement_below_its_least_names_its_key(
        sub, old, key, value, pm_config, tmp_path, capsys):
    cfg = tmp_path / "low.ini"
    text = open(pm_config).read()
    assert old in text
    cfg.write_text(text.replace(old, f"{old.split(' = ')[0]} = {value}"))
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    assert f"config error: {key} = {value}: " in capsys.readouterr().err
    assert not out.exists()


def test_roof_trunc_subcommand(doubling_config, tmp_path):
    out = tmp_path / "out"
    assert run(["roof-trunc", "--config", doubling_config,
                "--out", str(out)]) == 0
    assert (out / "roof_trunc.csv").exists()


@pytest.mark.parametrize("Y", ["0.0,1.0", "0.0,0.5"])
@pytest.mark.parametrize("sub", ["corr-flow", "roof-trunc"])
def test_singular_roof_over_zero_is_config_error(sub, Y, doubling_config,
                                                 tmp_path, capsys):
    # a base cell that holds 0, where the roof 1 + x^(-1/2) is singular:
    # the sampler gave up after 200 rejection rounds, exit 4 after the work
    cfg = tmp_path / "db0.ini"
    cfg.write_text(open(doubling_config).read()
                   .replace("Y = 0.5,1.0", f"Y = {Y}"))
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "[roof]" in err and "[map] Y" in err
    assert not out.exists() or not any(out.iterdir())


def test_eigenfun_subcommand(pm_config, tmp_path):
    out = tmp_path / "out"
    assert run(["eigenfun", "--config", pm_config, "--out", str(out)]) == 0
    assert (out / "eigenfun.csv").exists()
    assert (out / "diophantine.csv").exists()


def test_eigenfun_unsettled_cycle_points_write_nothing(pm_config, tmp_path,
                                                       capsys):
    # on pm with Y = 0,1 the search wrote eigenfun.csv from unconverged
    # points, and only the periodic enumeration after it exited 4
    cfg = tmp_path / "pm01.ini"
    cfg.write_text(open(pm_config).read().replace("Y = 0.5,1.0", "Y = 0.0,1.0"))
    out = tmp_path / "out"
    assert run(["eigenfun", "--config", str(cfg), "--out", str(out)]) == 4
    assert "contraction failed" in capsys.readouterr().err
    assert not (out / "eigenfun.csv").exists()


def test_resolvent_subcommand(pm_config, tmp_path):
    out = tmp_path / "out"
    assert run(["resolvent", "--config", pm_config, "--out", str(out)]) == 0
    body = (out / "resolvent.csv").read_text()
    assert body.startswith("b,omega,norm_estimate,resonance_flag,alpha_fit")


def test_plot_scripts_are_text_only(pm_config, tmp_path):
    out = tmp_path / "out"
    run(["tail", "--config", pm_config, "--out", str(out)])
    script = (out / "plot_tail.py").read_text()
    assert "matplotlib" in script and "savefig" in script
    assert not any(p.suffix == ".png" for p in out.iterdir())


def test_byte_identical_reruns(pm_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["corr-flow", "--config", pm_config,
                    "--out", str(out)]) == 0
        outs.append((out / "corr_flow.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("error")
def test_laplace_overflow_is_numerical_error(doubling_config, tmp_path,
                                            capsys):
    # e^{s u} overflows under the power-singularity roof at s = 0.5: the
    # series must stop with exit 4, not report nan as a result, and numpy
    # must not warn before the "numerical error" line
    out = tmp_path / "out"
    code = run(["laplace", "--config", doubling_config, "--out", str(out)])
    assert code == 4
    assert "numerical error" in capsys.readouterr().err
    assert not (out / "laplace.csv").exists()


def test_laplace_divergence_is_numerical_error(pm_config, tmp_path, capsys):
    # s = -0.4 lies left of the abscissa: the series diverges, and its
    # value was written as nan with exit 0
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(open(pm_config).read().replace("s = 0.1j", "s = -0.4"))
    out = tmp_path / "out"
    assert run(["laplace", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "s=(-0.4+0j)" in err
    assert "abscissa" in err
    assert not (out / "laplace.csv").exists()


@pytest.mark.parametrize("s", ["-0.2", "-0.1"])
def test_laplace_abscissa_is_in_flow_time(pm_config, tmp_path, capsys, s):
    # the abscissa of absolute convergence is 0 in flow time (Mhat 1 = 1,
    # h > 0): read per tower step instead it was 0.24 at s = -0.2
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(open(pm_config).read().replace("s = 0.1j", f"s = {s}"))
    out = tmp_path / "out"
    assert run(["laplace", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    estimate = float(err.split("abscissa ")[1].split()[0])
    assert abs(estimate) < 0.02, err


def test_laplace_unresolved_abscissa_is_numerical_error(pm_config, tmp_path,
                                                        capsys):
    # |Im s| max h = 30 under the cosine roof: the 16-node flight rule
    # moves the value by 2.5e-9 against 64 nodes for v = w = coordinate
    # and by 2.6e-4 for w = trig_flow, and the value was written
    cfg = tmp_path / "fast.ini"
    cfg.write_text(open(pm_config).read().replace("s = 0.1j", "s = 0.3+10j"))
    out = tmp_path / "out"
    assert run(["laplace", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "s=(0.3+10j)" in err
    assert "not resolved" in err
    assert not (out / "laplace.csv").exists()


def test_laplace_pole_is_numerical_error(pm_config, tmp_path, capsys):
    # s = 0 is a pole of the transform: I - R_0 = I - Mhat is singular
    cfg = tmp_path / "pole.ini"
    cfg.write_text(open(pm_config).read().replace("s = 0.1j", "s = 0"))
    out = tmp_path / "out"
    assert run(["laplace", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "pole at s=0j" in err
    assert not (out / "laplace.csv").exists()


def test_laplace_exactly_singular_is_numerical_error(pm_config, tmp_path,
                                                     capsys, monkeypatch):
    # an exactly singular I - R_-s (here I - a cyclic permutation) has no
    # sparse LU; it is a pole like a near-singular one, exit 4
    def cyclic(grid, s, z=0.0):
        n = grid.basis.n
        return SimpleNamespace(i_minus=lambda: csc_matrix(
            np.eye(n) - np.roll(np.eye(n), 1, axis=0), dtype=complex))

    monkeypatch.setattr(operators, "assemble_twisted", cyclic)
    out = tmp_path / "out"
    assert run(["laplace", "--config", pm_config, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "pole at s=0.1j" in err
    assert not (out / "laplace.csv").exists()


def test_laplace_csv_columns(pm_config, tmp_path):
    out = tmp_path / "out"
    assert run(["laplace", "--config", pm_config, "--out", str(out)]) == 0
    head, row = (out / "laplace.csv").read_text().splitlines()
    assert head == "s_re,s_im,value_re,value_im"
    assert [float(x) for x in row.split(",")[:2]] == [0.0, 0.1]


def test_seed_flag_overrides(pm_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run(["corr-flow", "--config", pm_config, "--out", str(out1),
         "--seed", "1"])
    run(["corr-flow", "--config", pm_config, "--out", str(out2),
         "--seed", "2"])
    assert (out1 / "corr_flow.csv").read_bytes() != \
        (out2 / "corr_flow.csv").read_bytes()


@pytest.mark.parametrize("sub,section,key,value", [
    ("truncate", "grids", "N_list", "5.7"),     # int(float) made this N = 5
    ("decomp", "grids", "n_list", "1,4.5"),
    ("periodic", "grids", "symbols", "0,1.0"),
    ("induce", "map", "Y", ""),                 # was (0.5, 1.0), even for
    ("tail", "map", "Y", ""),                   # the doubling map
    ("induce", "map", "Y", "0.5,1.0,7"),        # ran on [0.5, 1], 7 dropped
    ("induce", "map", "Y", "0.5"),
    ("corr-map", "grids", "n_max", "5"),        # was a TypeError traceback
    ("corr-map", "grids", "n_max", "10"),
    ("resolvent", "grids", "b_grid", "1:100:0"),  # was a ZeroDivisionError
    ("eigenfun", "grids", "b_grid", "200:10:10"),  # an empty range
    ("budget", "grids", "beta", "0"),           # was a ZeroDivisionError
    ("budget", "grids", "beta", "-1"),          # exit 2 on rate "t^--1"
])
def test_ill_typed_value_is_config_error(sub, section, key, value, tmp_path,
                                         capsys):
    body = {"map": "kind = doubling\nJ = 30\ntail_horizon = 600\n"}
    body[section] = body.get(section, "") + f"{key} = {value}\n"
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(f"[{s}]\n{b}" for s, b in body.items()))
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    assert f"[{section}] {key} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("N", ["-2", "0"])
@pytest.mark.parametrize("sub", ["resolvent", "renewal", "decomp", "laplace"])
def test_tower_below_one_level_is_config_error(sub, N, pm_config, tmp_path,
                                               capsys):
    # N = -2: resolvent wrote inf-norm flags (exit 0), renewal raised an
    # IndexError, decomp and laplace failed in numpy; N = 0: exit 4
    cfg = tmp_path / "n.ini"
    cfg.write_text(open(pm_config).read().replace("N = 12", f"N = {N}"))
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    assert f"N = {N}: truncation level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub,roof,name", [
    ("resolvent", "kind = constant\nc = 0", "[roof] c = 0.0"),
    ("decomp", "kind = constant\nc = 0", "[roof] c = 0.0"),
    ("laplace", "kind = constant\nc = -1", "[roof] c = -1.0"),
    ("resolvent", "kind = power_singularity\nbeta = -1", "[roof] beta = -1.0"),
    ("corr-flow", "kind = power_singularity\nbeta = -0.5",
     "[roof] beta = -0.5"),
    ("roof-trunc", "kind = power_singularity\nbeta = 0", "[roof] beta = 0.0"),
    ("resolvent", "kind = cosine\nmean = 1\namp = 1", "[roof] roof must"),
])
def test_roof_that_makes_no_roof_is_config_error(sub, roof, name, pm_config,
                                                 tmp_path, capsys):
    # c = 0 ran resolvent, renewal and decomp to exit 0, c = -1 gave a
    # negative Laplace transform; beta = -1 divided by zero (exit 4), and
    # beta in (-1, 0] is a roof of infinite mean that corr-flow sampled
    cfg = tmp_path / "roof.ini"
    cfg.write_text(open(pm_config).read().replace("kind = cosine", roof))
    out = tmp_path / "out"
    assert run([sub, "--config", str(cfg), "--out", str(out)]) == 3
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("C6", ["0", "-2"])
def test_nonpositive_C6_is_config_error(C6, pm_config, tmp_path, capsys):
    # C6 = 0 gave nan norms, C6 = -2 the bare sup norm, both with exit 0
    cfg = tmp_path / "c6.ini"
    cfg.write_text(open(pm_config).read()
                   .replace("refine = 12", f"refine = 12\nC6 = {C6}"))
    out = tmp_path / "out"
    assert run(["resolvent", "--config", str(cfg), "--out", str(out)]) == 3
    assert f"C6 = {float(C6)}: not > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,name", [
    ("[grid]\nN_list = 7\n", "[grid]"),
    ("[map]\nalfa = 0.5\n", "[map] alfa"),
    # the log factor of the declared-exponent tail, which is gone: the
    # tail past the cell cutoff is measured on the escape ladder
    ("[map]\ngamma = 1.0\n", "[map] gamma"),
], ids=["section", "key", "map-gamma"])
def test_misspelt_section_or_key_is_config_error(text, name, tmp_path,
                                                 capsys):
    # a misspelt [grid] used to run truncate at the default N list, exit 0
    cfg = tmp_path / "typo.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["truncate", "--config", str(cfg), "--out", str(out)]) == 3
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nJ = 30\n[map]\nkind = pm\n",
    "[DEFAULT]\nJ = 30\n[map]\nkind = pm\n[grids]\nn_max = 60\n",
], ids=["beside-map", "beside-grids"])
def test_default_section_is_config_error(text, tmp_path, capsys):
    # configparser copies [DEFAULT] keys into every section: beside [map]
    # alone this ran induce with J = 30, beside [grids] it was misreported
    # as an unknown [grids] J
    cfg = tmp_path / "default.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["induce", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "[DEFAULT]" in err
    assert "[grids] J" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_budget_overflow_is_numerical_error(tmp_path, capsys):
    # p = (2 - beta)/beta + 1 overflows the contour term: this wrote nan
    # terms and passed, since nan > 0.1 is False; numpy must not warn
    # before the "numerical error" line
    cfg = tmp_path / "budget.ini"
    cfg.write_text("[grids]\nbeta = 0.0001\n")
    out = tmp_path / "out"
    code = run(["budget", "--config", str(cfg), "--out", str(out)])
    assert code == 4
    assert "numerical error" in capsys.readouterr().err
    assert not out.exists()


def test_short_tail_horizon_names_its_key(tmp_path, capsys):
    # the fit window [100, tail_horizon - 1] needs n_max >= 400; the error
    # used to name only the window
    cfg = tmp_path / "tail.ini"
    cfg.write_text("[map]\nkind = doubling\nJ = 30\ntail_horizon = 400\n")
    out = tmp_path / "out"
    assert run(["tail", "--config", str(cfg), "--out", str(out)]) == 3
    assert "[map] tail_horizon = 400" in capsys.readouterr().err
    assert not out.exists()


def test_per_subcommand_defaults(doubling_config, tmp_path):
    # decomp defaults to N = 20 and s = 0.1j (resolvent, renewal and
    # laplace to N = 30; laplace to s = 0.5, see the overflow test above)
    explicit = tmp_path / "explicit.ini"
    explicit.write_text(open(doubling_config).read()
                        .replace("[roof]", "[tower]\nN = 20\n[roof]")
                        .replace("[grids]", "[grids]\ns = 0.1j"))
    for name, cfg in (("implicit", doubling_config),
                      ("explicit", str(explicit))):
        assert run(["decomp", "--config", cfg,
                    "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "implicit" / "decomp.csv").read_bytes() == \
        (tmp_path / "explicit" / "decomp.csv").read_bytes()


def _fail_on_second_call(monkeypatch, owner, name):
    real, calls = getattr(owner, name), []

    def fake(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ArithmeticError("planted failure")
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, fake)


@pytest.mark.parametrize("sub,owner,name,table", [
    ("truncate", tw.Tower, "identity_tall_mass", "truncate.csv"),
    ("decomp", TowerGrid, "step", "decomp.csv"),
    ("eigenfun", per, "diophantine_check", "diophantine.csv"),
], ids=["truncate", "decomp", "eigenfun"])
def test_failure_partway_writes_no_partial_table(sub, owner, name, table,
                                                 pm_config, tmp_path,
                                                 monkeypatch, capsys):
    # these tables were written a row at a time, so a failure on the
    # second row left the first one behind in the CSV; decomp fails on
    # the second step of its one pass
    _fail_on_second_call(monkeypatch, owner, name)
    out = tmp_path / "out"
    assert run([sub, "--config", pm_config, "--out", str(out)]) == 4
    assert "planted failure" in capsys.readouterr().err
    assert not (out / table).exists()


def _write_rows(tmp_path_factory, rows) -> list[str]:
    run = cli.Run({}, str(tmp_path_factory.getbasetemp() / "csv"), False)
    path = cli._csv(run, "t.csv", "x", rows)
    return open(path, "rb").read().decode().split("\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.booleans()), min_size=1,
                max_size=6))
@example([(x, wrap) for x in (-0.0, 5e-324, 2.2250738585072009e-308, 0.1,
                              math.inf, -math.inf, math.nan)
          for wrap in (False, True)])
def test_csv_floats_read_back_bit_for_bit(tmp_path_factory, xs):
    # a float, Python's or numpy's, reads back to its bits (-0.0,
    # subnormals and +-inf too), and nan reads back as nan
    row = [np.float64(x) if wrap else x for x, wrap in xs]
    line = _write_rows(tmp_path_factory, [row])[1]
    for x, text in zip(row, line.split(",")):
        y = float(text)
        if math.isnan(x):
            assert math.isnan(y)
        else:
            assert np.float64(y).view(np.uint64) == \
                np.float64(x).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(),
       st.text(string.printable))
def test_csv_ints_bools_and_strings(tmp_path_factory, n, flag, text):
    # ints as integers, bools as 0/1, strings verbatim
    lines = _write_rows(tmp_path_factory,
                        [(n, np.int64(n), flag, np.bool_(flag), text)])
    assert "\n".join(lines[1:]) == \
        f"{n},{n},{int(flag)},{int(flag)},{text}\n"

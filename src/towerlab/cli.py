"""Config-driven experiment runner.

Each subcommand reads an INI config, runs one experiment, writes CSV
tables plus a small matplotlib script next to them (never rendering
anything itself), and prints a one-line summary.  Exit codes: 0 success,
1 usage, 2 check failed, 3 config error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from towerlab import maps, suspension as sp, tower as tw
from towerlab import periodic as per
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.towerop import TowerGrid, laplace_series, \
    map_correlation_operator
from towerlab.transfer.operators import resolvent_scan
from towerlab.transfer.renewal import renewal_build, \
    tower_operator_decomposition
from towerlab.transfer import rates

SUBCOMMANDS = [
    "induce", "tail", "tower", "truncate", "corr-map", "corr-flow",
    "trunc-error", "roof-trunc", "resolvent", "renewal", "decomp",
    "laplace", "budget", "periodic", "eigenfun", "accept",
]


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _parse_list(text: str, cast=float) -> list:
    text = text.strip()
    if ":" in text:  # start:stop:step
        a, b, c = (float(x) for x in text.split(":"))
        return list(np.arange(a, b + 1e-9, c).astype(cast))
    return [cast(x) for x in text.split(",") if x.strip()]


def _load(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.optionxform = str  # keys are case-sensitive
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} not found")
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _build_induced(cfg) -> maps.InducedMap:
    sec = cfg["map"] if "map" in cfg else {}
    model = maps.map_from_config(sec)
    Y = tuple(_parse_list(sec.get("Y", "0.5,1.0"))) if sec.get("Y") else (0.5, 1.0)
    if model.name == "doubling" and "Y" not in sec:
        Y = (0.0, 1.0)
    return maps.induce(model, Y,
                       branch_cutoff=int(sec.get("J", 400)),
                       tail_horizon=int(sec.get("tail_horizon", 12000)),
                       gamma_declared=float(sec.get("gamma", 0.0)))


def _build_roof(cfg) -> sp.RoofFunction:
    sec = cfg["roof"] if "roof" in cfg else {}
    kind = sec.get("kind", "cosine")
    if kind == "constant":
        return sp.constant_roof(float(sec.get("c", 1.0)))
    if kind == "cosine":
        return sp.cosine_roof(float(sec.get("mean", 2.0)),
                              float(sec.get("amp", 1.0)))
    if kind == "power_singularity":
        return sp.power_singularity_roof(float(sec.get("beta", 1.0)))
    raise ConfigError(f"unknown roof kind {kind!r}")


def _build_obs(cfg, key: str) -> sp.Observable:
    sec = cfg["observables"] if "observables" in cfg else {}
    name = sec.get(key, "coordinate")
    if name not in sp.OBSERVABLES:
        raise ConfigError(f"unknown observable {name!r}")
    return sp.OBSERVABLES[name]()


def _build_basis(cfg, ind) -> CylinderBasis:
    sec = cfg["basis"] if "basis" in cfg else {}
    return CylinderBasis(ind, depth=int(sec.get("depth", 2)),
                         refine_symbols=int(sec.get("refine", 24)))


def _seed(cfg, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    if "run" in cfg and "seed" in cfg["run"]:
        return int(cfg["run"]["seed"])
    raise ConfigError("no seed given (config [run] seed or --seed)")


def _samples(cfg) -> int:
    return int(cfg["run"].get("samples", "200000")) if "run" in cfg else 200000


def _out(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _plot_script(args, name: str, csv: str, xcol: str, ycols: list[str],
                 logx: bool = False, logy: bool = False) -> None:
    lines = [
        "#!/usr/bin/env python3",
        "import csv, sys",
        "import matplotlib.pyplot as plt",
        f"rows = list(csv.DictReader(open({csv!r})))",
        f"x = [float(r[{xcol!r}]) for r in rows]",
    ]
    for y in ycols:
        lines.append(f"plt.plot(x, [float(r[{y!r}]) for r in rows], "
                     f"label={y!r})")
    if logx:
        lines.append("plt.xscale('log')")
    if logy:
        lines.append("plt.yscale('log')")
    lines += [f"plt.xlabel({xcol!r})", "plt.legend()",
              f"plt.savefig({name + '.png'!r}, dpi=150)"]
    with open(_out(args, f"plot_{name}.py"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommand implementations ----------------------------------------------

def cmd_induce(cfg, args) -> None:
    ind = _build_induced(cfg)
    path = _out(args, "cells.csv")
    ind.to_csv(path)
    print(f"induce: {ind.J} cells, rbar={ind.mean_return:.6f}, "
          f"tail mass {ind.tail_mass:.3e} -> {path}")


def cmd_tail(cfg, args) -> None:
    ind = _build_induced(cfg)
    path = _out(args, "tail.csv")
    ns = np.unique(np.geomspace(1, ind.tail_horizon - 1, 200).astype(int))
    with open(path, "w") as fh:
        fh.write("n,muY_total,muY_raw,muY_extrapolated,mu0_exact\n")
        for n in ns:
            tv = maps.return_time_tail(ind, int(n))
            fh.write(f"{n},{tv.total:.17g},{tv.raw:.17g},"
                     f"{tv.extrapolated:.17g},{ind.mu0_tail(int(n)):.17g}\n")
    fit = maps.fit_tail_exponent(ind, 100, min(10000, ind.tail_horizon - 1))
    _plot_script(args, "tail", path, "n", ["muY_total", "mu0_exact"],
                 logx=True, logy=True)
    print(f"tail: fitted exponent {fit.exponent:.4f} "
          f"(exp flag {fit.exponential_flag}) -> {path}")
    if fit.exponential_flag and args.strict:
        raise CheckFailure("exponential tail under strict power-law profile")


def cmd_tower(cfg, args) -> None:
    ind = _build_induced(cfg)
    t = tw.build_tower(ind)
    path = _out(args, "tower.csv")
    t.to_csv(path)
    print(f"tower: {t.n_cells} cells, rbar={t.rbar:.6f}, "
          f"mass {t.total_mass:.12f} -> {path}")


def cmd_truncate(cfg, args) -> None:
    ind = _build_induced(cfg)
    t = tw.build_tower(ind)
    Ns = [int(x) for x in _parse_list(cfg["grids"].get("N_list", "10,20,50,100"))] \
        if "grids" in cfg else [10, 20, 50, 100]
    path = _out(args, "truncate.csv")
    worst = 0.0
    with open(path, "w") as fh:
        fh.write("N,mean_defect_lhs,mean_defect_rhs,tall_lhs,tall_rhs\n")
        for N in Ns:
            tt = tw.truncate(t, N)
            l1, r1 = tt.identity_mean_defect()
            l2, r2 = tt.identity_tall_mass()
            worst = max(worst, abs(l1 - r1), abs(l2 - r2))
            fh.write(f"{N},{l1:.17g},{r1:.17g},{l2:.17g},{r2:.17g}\n")
    print(f"truncate: identities hold to {worst:.3e} -> {path}")
    if worst > 1e-12:
        raise CheckFailure(f"truncation identities defect {worst:.3e}")


def cmd_corr_map(cfg, args) -> None:
    basis = _build_basis(cfg, _build_induced(cfg))
    n_max = int(cfg.get("grids", "n_max", fallback="500"))
    c = map_correlation_operator(basis, lambda x: x - 0.5, lambda x: x - 0.5,
                                 n_max)
    path = _out(args, "corr_map.csv")
    with open(path, "w") as fh:
        fh.write("n,rho\n")
        for n, v in enumerate(c):
            fh.write(f"{n},{v:.17g}\n")
    ns = np.arange(10, n_max + 1)
    good = np.abs(c[10:]) > 0
    coef = np.polyfit(np.log(ns[good]), np.log(np.abs(c[10:][good])), 1)
    _plot_script(args, "corr_map", path, "n", ["rho"], logx=True, logy=True)
    print(f"corr-map: fitted exponent {-coef[0]:.4f} -> {path}")


def cmd_corr_flow(cfg, args) -> None:
    ind = _build_induced(cfg)
    model = sp.SuspensionModel(tw.build_tower(ind), _build_roof(cfg))
    t_grid = _parse_list(cfg.get("grids", "t_grid", fallback="0,1,2,5,10,20"))
    cs = sp.correlation_mc(model, _build_obs(cfg, "v"), _build_obs(cfg, "w"),
                           t_grid, _samples(cfg), _seed(cfg, args))
    path = _out(args, "corr_flow.csv")
    cs.to_csv(path)
    _plot_script(args, "corr_flow", path, "t", ["rho"])
    print(f"corr-flow: rho({cs.t[-1]:g}) = {cs.rho[-1]:.5f} "
          f"+- {cs.stderr[-1]:.5f} -> {path}")


def cmd_trunc_error(cfg, args) -> None:
    ind = _build_induced(cfg)
    Ns = [int(x) for x in _parse_list(cfg.get("grids", "N_list",
                                              fallback="10,20,40"))]
    ts = _parse_list(cfg.get("grids", "t_grid", fallback="5,10,20"))
    tab = sp.truncation_error_experiment(
        ind, _build_roof(cfg), _build_obs(cfg, "v"), _build_obs(cfg, "w"),
        Ns, ts, _samples(cfg), _seed(cfg, args))
    path = _out(args, "trunc_error.csv")
    tab.to_csv(path)
    _plot_script(args, "trunc_error", path, "t", ["measured", "bound"],
                 logy=True)
    print(f"trunc-error: fitted C {tab.fitted_C:.4f}, "
          f"stable within {tab.stable_within:.2f} -> {path}")
    if tab.stable_within > 3.0:
        raise CheckFailure("fitted constant unstable beyond factor 3")


def cmd_roof_trunc(cfg, args) -> None:
    ind = _build_induced(cfg)
    roof = _build_roof(cfg)
    Ns = [int(x) for x in _parse_list(cfg.get("grids", "N_list",
                                              fallback="10,20,40"))]
    ts = _parse_list(cfg.get("grids", "t_grid", fallback="5,10,20"))
    out = sp.roof_truncation_experiment(
        ind, roof, _build_obs(cfg, "v"), _build_obs(cfg, "w"),
        Ns, ts, _samples(cfg), _seed(cfg, args),
        q_log_trunc=float(cfg.get("grids", "q_log", fallback="5.0")))
    path = _out(args, "roof_trunc.csv")
    with open(path, "w") as fh:
        fh.write("N,t,measured,stderr,bound,second_measured,second_bound\n")
        for r, r2 in zip(out["rows"], out["second_rows"]):
            fh.write(f"{r.N},{r.t:.17g},{r.measured:.17g},{r.stderr:.17g},"
                     f"{r.bound:.17g},{r2.measured:.17g},{r2.bound:.17g}\n")
    print(f"roof-trunc: fitted C {out['fitted_C']:.4f} "
          f"stable {out['stable_within']:.2f}; second-cut C "
          f"{out['second_fitted_C']:.4f} stable "
          f"{out['second_stable_within']:.2f} -> {path}")
    if out["stable_within"] > 3.0:
        raise CheckFailure("fitted constant unstable beyond factor 3")


def cmd_resolvent(cfg, args) -> None:
    ind = _build_induced(cfg)
    basis = _build_basis(cfg, ind)
    bg = _parse_list(cfg.get("grids", "b_grid", fallback="1:100:4"))
    og = _parse_list(cfg.get("grids", "omega_grid", fallback="0"))
    sc = resolvent_scan(basis, _build_roof(cfg), bg, og,
                        N=int(cfg.get("tower", "N", fallback="30")),
                        C6=float(cfg.get("basis", "C6", fallback="2.0")),
                        seed=_seed(cfg, args))
    path = _out(args, "resolvent.csv")
    sc.to_csv(path)
    _plot_script(args, "resolvent", path, "b", ["norm_estimate"], logy=True)
    print(f"resolvent: {int(sc.resonance.sum())} flags, "
          f"alpha fit {sc.alpha_fit:.3f} -> {path}")


def cmd_renewal(cfg, args) -> None:
    ind = _build_induced(cfg)
    basis = _build_basis(cfg, ind)
    grid = TowerGrid(basis, _build_roof(cfg),
                     int(cfg.get("tower", "N", fallback="30")))
    s = complex(cfg.get("grids", "s", fallback="0.1j").replace(" ", ""))
    rd = renewal_build(grid, s)
    path = _out(args, "renewal.csv")
    with open(path, "w") as fh:
        fh.write("omega,residual,raw_residual\n")
        for om, r, rr in zip(np.imag(rd.z_points), rd.residuals,
                             rd.raw_residuals):
            fh.write(f"{om:.17g},{r:.17g},{rr:.17g}\n")
    print(f"renewal: max residual {rd.max_residual:.3e} "
          f"(raw tail {rd.raw_tail:.2e}) -> {path}")
    if rd.max_residual > 1e-8:
        raise CheckFailure("renewal identity residual above 1e-8")


def cmd_decomp(cfg, args) -> None:
    ind = _build_induced(cfg)
    basis = _build_basis(cfg, ind)
    grid = TowerGrid(basis, _build_roof(cfg),
                     int(cfg.get("tower", "N", fallback="20")))
    s = complex(cfg.get("grids", "s", fallback="0.1j").replace(" ", ""))
    ns = [int(x) for x in _parse_list(cfg.get("grids", "n_list",
                                              fallback="1,5,15,21"))]
    path = _out(args, "decomp.csv")
    worst = 0.0
    with open(path, "w") as fh:
        fh.write("n,residual,vanish_beyond\n")
        for n in ns:
            rep = tower_operator_decomposition(grid, s, n)
            worst = max(worst, rep.residual)
            fh.write(f"{n},{rep.residual:.17g},{int(rep.vanish_beyond)}\n")
    print(f"decomp: worst residual {worst:.3e} -> {path}")
    if worst > 1e-8:
        raise CheckFailure("decomposition residual above 1e-8")


def cmd_laplace(cfg, args) -> None:
    ind = _build_induced(cfg)
    basis = _build_basis(cfg, ind)
    grid = TowerGrid(basis, _build_roof(cfg),
                     int(cfg.get("tower", "N", fallback="30")))
    s = complex(cfg.get("grids", "s", fallback="0.5").replace(" ", ""))
    lv = laplace_series(grid, _build_obs(cfg, "v"), _build_obs(cfg, "w"), s)
    path = _out(args, "laplace.csv")
    with open(path, "w") as fh:
        fh.write("s_re,s_im,value_re,value_im,n_terms,converged\n")
        fh.write(f"{s.real:.17g},{s.imag:.17g},{lv.value.real:.17g},"
                 f"{lv.value.imag:.17g},{lv.n_terms},{int(lv.converged)}\n")
    print(f"laplace: rho-hat({s}) = {lv.value:.6g} "
          f"({lv.n_terms} terms) -> {path}")


def cmd_budget(cfg, args) -> None:
    sec = cfg["grids"] if "grids" in cfg else {}
    beta = float(sec.get("beta", 1.0))
    gamma = float(sec.get("gamma", 2.0))
    b = rates.rate_budget(beta=beta, gamma=gamma)
    path = _out(args, "budget.csv")
    b.to_csv(path)
    _plot_script(args, "budget", path, "t",
                 ["term1", "term2", "term3", "term4"], logx=True, logy=True)
    defect = rates.budget_matches_rate(b)
    print(f"budget: dominant rate {b.predicted_rate}, dN class {b.dN_class}, "
          f"schedule defect {defect:.4f} -> {path}")
    if defect > 0.1:
        raise CheckFailure("schedule does not reproduce the predicted rate")


def cmd_periodic(cfg, args) -> None:
    ind = _build_induced(cfg)
    sec = cfg["grids"] if "grids" in cfg else {}
    syms = tuple(int(x) for x in _parse_list(sec.get("symbols", "0,1"), int))
    qmax = int(sec.get("q_max", 3))
    sub = per.FiniteSubsystem(ind, syms)
    triples = per.enumerate_periodic(sub, qmax, roof=_build_roof(cfg))
    path = _out(args, "periodic.csv")
    with open(path, "w") as fh:
        fh.write("word,q,d,tau\n")
        for t in triples:
            fh.write(f"{'-'.join(map(str, t.word))},{t.q},{t.d},"
                     f"{t.tau:.17g}\n")
    print(f"periodic: {len(triples)} primitive orbits -> {path}")


def cmd_eigenfun(cfg, args) -> None:
    ind = _build_induced(cfg)
    roof = _build_roof(cfg)
    sec = cfg["grids"] if "grids" in cfg else {}
    syms = tuple(int(x) for x in _parse_list(sec.get("symbols", "0,1"), int))
    sub = per.FiniteSubsystem(ind, syms)
    bg = _parse_list(sec.get("b_grid", "10:200:10"))
    og = _parse_list(sec.get("omega_grid", "0"))
    alpha = float(sec.get("alpha", 2.0))
    rep = per.approx_eigenfunction_search(sub, roof, bg, og, alpha=alpha)
    path = _out(args, "eigenfun.csv")
    rep.to_csv(path)
    # the theorem-side constants are existential: sweep trial values and
    # report the alignment verdict per combination
    triples = per.enumerate_periodic(sub, int(sec.get("q_max", 3)), roof=roof)
    path2 = _out(args, "diophantine.csv")
    with open(path2, "w") as fh:
        fh.write("alpha,C,b,omega,phi_star,residual,pass_flag\n")
        for a in (1.0, 2.0, 4.0):
            for C in (1.0, 10.0):
                dio = per.diophantine_check(triples, bg, og, alpha=a, C=C)
                for r in dio.rows:
                    fh.write(f"{a:g},{C:g},{r.b:.17g},{r.omega:.17g},"
                             f"{r.phi:.17g},{r.worst:.17g},{int(r.passes)}\n")
                print(f"  alignment: {dio.evidence()}")
    small = sum(1 for r in rep.rows if r.scaled < 0.1)
    print(f"eigenfun: {small} small-residual points -> {path}, {path2}")


def cmd_accept(cfg, args) -> None:
    from towerlab import acceptance
    results = acceptance.run_all(out_dir=args.out)
    failed = [r for r in results if not r.passed]
    if failed:
        raise CheckFailure(f"{len(failed)} acceptance criteria failed")


HANDLERS = {
    "induce": cmd_induce,
    "tail": cmd_tail,
    "tower": cmd_tower,
    "truncate": cmd_truncate,
    "corr-map": cmd_corr_map,
    "corr-flow": cmd_corr_flow,
    "trunc-error": cmd_trunc_error,
    "roof-trunc": cmd_roof_trunc,
    "resolvent": cmd_resolvent,
    "renewal": cmd_renewal,
    "decomp": cmd_decomp,
    "laplace": cmd_laplace,
    "budget": cmd_budget,
    "periodic": cmd_periodic,
    "eigenfun": cmd_eigenfun,
    "accept": cmd_accept,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="towerlab",
        description="numerical laboratory for towers and suspension semiflows")
    parser.add_argument("subcommand", nargs="?",
                        metavar="{" + ",".join(SUBCOMMANDS) + "}")
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", default=None, type=int)
    parser.add_argument("--strict", action="store_true",
                        help="tail only: fail (exit 2) on an exponential "
                             "tail; a usage error on other subcommands")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on -h
        return 1 if exc.code else 0
    if args.subcommand is None or args.subcommand not in SUBCOMMANDS:
        parser.print_usage()
        return 1
    if args.strict and args.subcommand != "tail":  # refused, not ignored
        parser.print_usage(sys.stderr)
        print(f"towerlab: --strict has no meaning for {args.subcommand}",
              file=sys.stderr)
        return 1
    try:
        if args.subcommand == "accept":
            cfg = configparser.ConfigParser()
            if args.config:
                cfg = _load(args.config)
        else:
            if args.config is None:
                raise ConfigError("--config is required")
            cfg = _load(args.config)
        HANDLERS[args.subcommand](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it is caught first
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

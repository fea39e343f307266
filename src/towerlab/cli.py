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
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from towerlab import maps, periodic as per, suspension as sp, tower as tw
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.towerop import TowerGrid, map_correlation_operator
from towerlab.transfer.operators import laplace_transform, resolvent_scan
from towerlab.transfer.renewal import renewal_build, \
    tower_operator_decomposition
from towerlab.transfer import rates


class CheckFailure(Exception):
    pass


def _parse(typ, text: str):
    """Cast INI text to a SCHEMA type; raise ValueError if it does not fit."""
    if isinstance(typ, tuple):
        if text not in typ:
            raise ValueError(f"not one of {' | '.join(typ)}")
        return text
    if isinstance(typ, list):
        if ":" in text:  # start:stop:step
            a, b, c = (typ[0](x) for x in text.split(":"))
            if not (a <= b and c > 0):
                raise ValueError("want start <= stop and step > 0")
            vals = tuple(np.arange(a, b + 1e-9, c).astype(typ[0]).tolist())
        else:
            vals = tuple(typ[0](x) for x in text.split(","))
        if len(typ) > 1 and len(vals) != len(typ):
            raise ValueError(f"want exactly {len(typ)} values")
        return vals
    return typ(text.replace(" ", "") if typ is complex else text)


# Every key a config may hold, as (type, default); any other key is a config
# error.  A type is int, float, complex, [int] or [float] (a comma list or
# start:stop:step), [float, float] (exactly two) or a tuple of choices.  A
# default is INI text, or a dict of them picked by the subcommand or by
# [map] kind (declared first); None leaves the key unset.
SCHEMA = {
    ("map", "kind"): (("pm", "pomeau-manneville", "doubling"), "pm"),
    ("map", "alpha"): (float, "0.5"),
    ("map", "C"): (float, "24.0"),
    ("map", "Y"): ([float, float], {"pm": "0.5,1.0",
                                    "pomeau-manneville": "0.5,1.0",
                                    "doubling": "0.0,1.0"}),
    ("map", "J"): (int, "400"),
    ("map", "tail_horizon"): (int, "12000"),
    ("roof", "kind"): (tuple(sp.ROOFS), "cosine"),
    ("roof", "c"): (float, "1.0"),
    ("roof", "mean"): (float, "2.0"),
    ("roof", "amp"): (float, "1.0"),
    ("roof", "beta"): (float, "1.0"),
    ("observables", "v"): (tuple(sp.OBSERVABLES), "coordinate"),
    ("observables", "w"): (tuple(sp.OBSERVABLES), "coordinate"),
    ("basis", "depth"): (int, "2"),
    ("basis", "refine"): (int, "24"),
    ("basis", "C6"): (float, "2.0"),
    ("tower", "N"): (int, {"resolvent": "30", "renewal": "30",
                           "laplace": "30", "decomp": "20"}),
    ("grids", "N_list"): ([int], {"truncate": "10,20,50,100",
                                  "trunc-error": "10,20,40",
                                  "roof-trunc": "10,20,40"}),
    ("grids", "t_grid"): ([float], {"corr-flow": "0,1,2,5,10,20",
                                    "trunc-error": "5,10,20",
                                    "roof-trunc": "5,10,20"}),
    ("grids", "n_max"): (int, "500"),
    ("grids", "q_log"): (float, "5.0"),
    ("grids", "b_grid"): ([float], {"resolvent": "1:100:4",
                                    "eigenfun": "10:200:10"}),
    ("grids", "omega_grid"): ([float], "0"),
    ("grids", "s"): (complex, {"renewal": "0.1j", "decomp": "0.1j",
                               "laplace": "0.5"}),
    ("grids", "n_list"): ([int], "1,5,15,21"),
    ("grids", "beta"): (float, "1.0"),
    ("grids", "gamma"): (float, "2.0"),
    ("grids", "symbols"): ([int], "0,1"),
    ("grids", "q_max"): (int, "3"),
    ("grids", "alpha"): (float, "2.0"),
    ("run", "seed"): (int, None),
    ("run", "samples"): (int, "200000"),
}


def _load(path: str | None, sub: str, seed: int | None = None) -> Mapping:
    """Parse the INI at ``path`` into the typed values ``sub`` runs with."""
    if path is None:
        raise ValueError("--config is required")
    # no header names the empty section, so [DEFAULT] is an ordinary (and
    # unknown) section instead of defaults copied into every section
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                    default_section="")
    ini.optionxform = str  # keys are case-sensitive
    try:
        with open(path) as fh:
            ini.read_file(fh)
        given = {(sec, key): text for sec in ini.sections()
                 for key, text in ini[sec].items()}
    except (OSError, configparser.Error) as exc:
        raise ValueError(str(exc)) from exc
    unknown = [f"[{s}]" for s in ini.sections()
               if s not in {sec for sec, _ in SCHEMA}] or \
        [f"[{s}] {k}" for s, k in given if (s, k) not in SCHEMA]
    if unknown:
        raise ValueError("unknown " + ", ".join(unknown))
    values = {}
    for (sec, key), (typ, default) in SCHEMA.items():
        text = given.get((sec, key), default)
        if isinstance(text, dict):
            text = text.get(sub, text.get(values.get(("map", "kind"))))
        try:
            values[sec, key] = None if text is None else _parse(typ, text)
        except ValueError as exc:
            raise ValueError(f"[{sec}] {key} = {text!r}: {exc}") from exc
    if seed is not None:
        values["run", "seed"] = seed
    if values["run", "seed"] is None and sub in FLAG_READERS["seed"]:
        raise ValueError("no seed given (config [run] seed or --seed)")
    return MappingProxyType(values)


@dataclass(frozen=True)
class Run:
    """What a subcommand reads: the parsed config, --out and --strict."""
    cfg: Mapping
    out: str
    strict: bool

    def __getitem__(self, key: tuple[str, str]):
        return self.cfg[key]


def _build_induced(run: Run) -> maps.InducedMap:
    model = maps.doubling_map() if run["map", "kind"] == "doubling" else \
        maps.pomeau_manneville(run["map", "alpha"], dist_const=run["map", "C"])
    J = _at_least("[map] J", run["map", "J"], 1)
    H = _at_least("[map] tail_horizon", run["map", "tail_horizon"], 1)
    return maps.induce(model, run["map", "Y"], branch_cutoff=J,
                       tail_horizon=H)


def _build_roof(run: Run) -> sp.RoofFunction:
    kind = run["roof", "kind"]
    try:
        if kind == "constant":
            return sp.constant_roof(run["roof", "c"])
        if kind == "cosine":
            return sp.cosine_roof(run["roof", "mean"], run["roof", "amp"])
        return sp.power_singularity_roof(run["roof", "beta"])
    except ValueError as exc:  # [grids] has a beta too
        raise ValueError(f"[roof] {exc}") from exc


def _build_obs(run: Run) -> tuple[sp.Observable, sp.Observable]:
    return (sp.OBSERVABLES[run["observables", "v"]](),
            sp.OBSERVABLES[run["observables", "w"]]())


def _build_basis(run: Run) -> CylinderBasis:
    depth = _at_least("[basis] depth", run["basis", "depth"], 1)
    refine = _at_least("[basis] refine", run["basis", "refine"], 0)
    return CylinderBasis(_build_induced(run), depth=depth,
                         refine_symbols=refine)


def _at_least(key: str, val, least: int):
    """The value ``val`` of the config key ``key`` ("[map] J"), an int or
    a list of ints, refused if a value is below ``least``: e.g. a cell
    cutoff J below 1, a truncation level N (N_list) below 1, an iterate n
    (n_list) below 0."""
    vals = val if isinstance(val, tuple) else (val,)
    if min(vals) < least:
        raise ValueError(f"{key} = {','.join(map(str, vals))}: "
                         f"{min(vals)} is below {least}")
    return val


def _stability_gate(fitted: float, spread: float) -> None:
    if spread > 3.0:
        raise CheckFailure("no row is noise-significant" if fitted == 0.0
                           else "fitted constant unstable beyond factor 3")


def _out(run: Run, name: str) -> str:
    os.makedirs(run.out, exist_ok=True)
    return os.path.join(run.out, name)


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def _csv(run: Run, name: str, header: str, rows) -> str:
    """Write the table ``name`` under --out, once all its rows exist: the
    header, then one line per row, floats as :.17g, bools as 0/1 and every
    other value as str."""
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    path = _out(run, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _plot_script(run: Run, name: str, csv: str, xcol: str, ycols: list[str],
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
    with open(_out(run, f"plot_{name}.py"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommand implementations ----------------------------------------------

def cmd_induce(run: Run) -> None:
    ind = _build_induced(run)
    path = _csv(run, "cells.csv", "j,r,lo,hi,muY",
                zip(range(ind.J), ind.r, ind.lo, ind.hi, ind.muY))
    print(f"induce: {ind.J} cells, rbar={ind.mean_return:.6f}, "
          f"tail mass {ind.tail_mass:.3e} -> {path}")


def cmd_tail(run: Run) -> None:
    horizon = run["map", "tail_horizon"]
    if horizon <= 400:  # the fit window [100, horizon - 1] needs 4x range
        raise ValueError(f"[map] tail_horizon = {horizon}: not above 400")
    ind = _build_induced(run)
    ns = np.unique(np.geomspace(1, ind.tail_horizon - 1, 200).astype(int))
    rows = []
    for n in ns:
        tv = maps.return_time_tail(ind, int(n))
        rows.append((n, tv.total, tv.raw, tv.extrapolated,
                     ind.mu0_tail(int(n))))
    path = _csv(run, "tail.csv",
                "n,muY_total,muY_raw,muY_extrapolated,mu0_exact", rows)
    fit = maps.fit_tail_exponent(ind, 100, min(10000, ind.tail_horizon - 1))
    _plot_script(run, "tail", path, "n", ["muY_total", "mu0_exact"],
                 logx=True, logy=True)
    print(f"tail: fitted exponent {fit.exponent:.4f} "
          f"(exp flag {fit.exponential_flag}) -> {path}")
    if fit.exponential_flag and run.strict:
        raise CheckFailure("exponential tail under strict power-law profile")


def cmd_tower(run: Run) -> None:
    t = tw.Tower(_build_induced(run))
    ind, col = t.ind, t.cell_col
    ends = t.column_positions(np.column_stack([ind.lo, ind.hi]))
    path = _csv(run, "tower.csv", "j,level,measure,r,r_trunc,lo_proj,hi_proj",
                zip(col, t.cell_level, t.column_mass[col], ind.r[col],
                    t.heights[col], ends[:, 0], ends[:, 1]))
    print(f"tower: {t.n_cells} cells, rbar={t.rbar:.6f}, "
          f"mass {t.total_mass:.12f} -> {path}")


def cmd_truncate(run: Run) -> None:
    ind = _build_induced(run)
    worst, rows = 0.0, []
    for N in _at_least("[grids] N_list", run["grids", "N_list"], 1):
        tt = tw.Tower(ind, N)
        l1, r1 = tt.identity_mean_defect()
        l2, r2 = tt.identity_tall_mass()
        worst = max(worst, abs(l1 - r1), abs(l2 - r2))
        rows.append((N, l1, r1, l2, r2))
    path = _csv(run, "truncate.csv",
                "N,mean_defect_lhs,mean_defect_rhs,tall_lhs,tall_rhs", rows)
    print(f"truncate: identities hold to {worst:.3e} -> {path}")
    if worst > 1e-12:
        raise CheckFailure(f"truncation identities defect {worst:.3e}")


def cmd_corr_map(run: Run) -> None:
    n_max = run["grids", "n_max"]
    if n_max < 11:  # the fit below needs two points from n = 10 on
        raise ValueError(f"[grids] n_max = {n_max}: below 11")
    c = map_correlation_operator(_build_basis(run), lambda x: x - 0.5,
                                 lambda x: x - 0.5, n_max)
    path = _csv(run, "corr_map.csv", "n,rho", enumerate(c))
    ns = np.arange(10, n_max + 1)
    good = np.abs(c[10:]) > 0
    coef = np.polyfit(np.log(ns[good]), np.log(np.abs(c[10:][good])), 1)
    _plot_script(run, "corr_map", path, "n", ["rho"], logx=True, logy=True)
    print(f"corr-map: fitted exponent {-coef[0]:.4f} -> {path}")


def cmd_corr_flow(run: Run) -> None:
    model = sp.SuspensionModel(tw.Tower(_build_induced(run)),
                               _build_roof(run))
    cs = sp.correlation_mc(model, *_build_obs(run), run["grids", "t_grid"],
                           run["run", "samples"], run["run", "seed"])
    path = _csv(run, "corr_flow.csv", "t,rho,stderr,n_samples,seed",
                [(t, r, e, cs.n_samples, cs.seed)
                 for t, r, e in zip(cs.t, cs.rho, cs.stderr)])
    _plot_script(run, "corr_flow", path, "t", ["rho"])
    print(f"corr-flow: rho({cs.t[-1]:g}) = {cs.rho[-1]:.5f} "
          f"+- {cs.stderr[-1]:.5f}, {cs.oob} parked landings -> {path}")


def cmd_trunc_error(run: Run) -> None:
    tab = sp.truncation_error_experiment(
        _build_induced(run), _build_roof(run), *_build_obs(run),
        _at_least("[grids] N_list", run["grids", "N_list"], 1),
        run["grids", "t_grid"], run["run", "samples"], run["run", "seed"])
    path = _csv(run, "trunc_error.csv", "N,t,measured,stderr,bound,ratio",
                [(r.N, r.t, r.measured, r.stderr, r.bound, r.ratio)
                 for r in tab.rows])
    _plot_script(run, "trunc_error", path, "t", ["measured", "bound"],
                 logy=True)
    print(f"trunc-error: fitted C {tab.fitted_C:.4f}, "
          f"stable within {tab.stable_within:.2f} -> {path}")
    _stability_gate(tab.fitted_C, tab.stable_within)


def cmd_roof_trunc(run: Run) -> None:
    out = sp.roof_truncation_experiment(
        _build_induced(run), _build_roof(run), *_build_obs(run),
        _at_least("[grids] N_list", run["grids", "N_list"], 1),
        run["grids", "t_grid"], run["run", "samples"], run["run", "seed"],
        q_log_trunc=run["grids", "q_log"])
    path = _csv(run, "roof_trunc.csv",
                "N,t,measured,stderr,bound,second_measured,second_bound",
                [(r.N, r.t, r.measured, r.stderr, r.bound, r2.measured,
                  r2.bound) for r, r2 in zip(out["rows"], out["second_rows"])])
    print(f"roof-trunc: fitted C {out['fitted_C']:.4f} "
          f"stable {out['stable_within']:.2f}; second-cut C "
          f"{out['second_fitted_C']:.4f} stable "
          f"{out['second_stable_within']:.2f} -> {path}")
    _stability_gate(out["fitted_C"], out["stable_within"])


def cmd_resolvent(run: Run) -> None:
    sc = resolvent_scan(_build_basis(run), _build_roof(run),
                        run["grids", "b_grid"], run["grids", "omega_grid"],
                        N=run["tower", "N"], C6=run["basis", "C6"],
                        seed=run["run", "seed"])
    path = _csv(run, "resolvent.csv",
                "b,omega,norm_estimate,resonance_flag,alpha_fit",
                [(b, om, ne, rf, sc.alpha_fit) for b, om, ne, rf
                 in zip(sc.b, sc.omega, sc.norm_estimate, sc.resonance)])
    _plot_script(run, "resolvent", path, "b", ["norm_estimate"], logy=True)
    print(f"resolvent: {int(sc.resonance.sum())} flags, "
          f"alpha fit {sc.alpha_fit:.3f} -> {path}")


def _tower_grid(run: Run) -> TowerGrid:
    return TowerGrid(_build_basis(run), _build_roof(run), run["tower", "N"])


def cmd_renewal(run: Run) -> None:
    rd = renewal_build(_tower_grid(run), run["grids", "s"])
    path = _csv(run, "renewal.csv", "omega,residual,raw_residual",
                zip(np.imag(rd.z_points), rd.residuals, rd.raw_residuals))
    print(f"renewal: max residual {rd.max_residual:.3e} "
          f"(raw tail {rd.raw_tail:.2e}) -> {path}")
    if rd.max_residual > 1e-8:
        raise CheckFailure("renewal identity residual above 1e-8")


def cmd_decomp(run: Run) -> None:
    ns = _at_least("[grids] n_list", run["grids", "n_list"], 0)
    rep = tower_operator_decomposition(_tower_grid(run), run["grids", "s"], ns)
    path = _csv(run, "decomp.csv", "n,residual,vanish_beyond",
                [(n, r, rep.vanish_beyond)
                 for n, r in zip(rep.n, rep.residuals)])
    print(f"decomp: worst residual {rep.residual:.3e} -> {path}")
    if rep.residual > 1e-8:
        raise CheckFailure("decomposition residual above 1e-8")


def cmd_laplace(run: Run) -> None:
    s = run["grids", "s"]
    value = laplace_transform(_tower_grid(run), *_build_obs(run), s)
    path = _csv(run, "laplace.csv", "s_re,s_im,value_re,value_im",
                [(s.real, s.imag, value.real, value.imag)])
    print(f"laplace: rho-hat({s}) = {value:.6g} -> {path}")


def cmd_budget(run: Run) -> None:
    beta = run["grids", "beta"]
    if not beta > 0:  # p, eps and q are derived from beta > 0
        raise ValueError(f"[grids] beta = {beta}: not > 0")
    b = rates.rate_budget(beta=beta, gamma=run["grids", "gamma"])
    path = _csv(run, "budget.csv",
                "t,N,term1,term2,term3,term4,dominant,predicted_rate",
                [(t, N, *terms, dom, b.predicted_rate) for t, N, terms, dom
                 in zip(b.t, b.N, b.terms.T, b.dominant)])
    _plot_script(run, "budget", path, "t",
                 ["term1", "term2", "term3", "term4"], logx=True, logy=True)
    defect = rates.budget_matches_rate(b)
    print(f"budget: dominant rate {b.predicted_rate}, dN class {b.dN_class}, "
          f"schedule defect {defect:.4f} -> {path}")
    if defect > 0.1:
        raise CheckFailure("schedule does not reproduce the predicted rate")


def cmd_periodic(run: Run) -> None:
    sub = per.FiniteSubsystem(_build_induced(run), run["grids", "symbols"])
    triples = per.enumerate_periodic(sub, run["grids", "q_max"],
                                     roof=_build_roof(run))
    path = _csv(run, "periodic.csv", "word,q,d,tau",
                [("-".join(map(str, t.word)), t.q, t.d, t.tau)
                 for t in triples])
    print(f"periodic: {len(triples)} primitive orbits -> {path}")


def cmd_eigenfun(run: Run) -> None:
    roof = _build_roof(run)
    sub = per.FiniteSubsystem(_build_induced(run), run["grids", "symbols"])
    bg, og = run["grids", "b_grid"], run["grids", "omega_grid"]
    eig = per.approx_eigenfunction_search(sub, roof, bg, og,
                                          alpha=run["grids", "alpha"])
    path = _csv(run, "eigenfun.csv", "b,omega,phi_star,residual,scaled",
                [(r.b, r.omega, r.phi, r.residual, r.scaled)
                 for r in eig])
    # the theorem-side constants are existential: sweep trial values and
    # report the alignment verdict per combination
    triples = per.enumerate_periodic(sub, run["grids", "q_max"], roof=roof)
    rows = []
    for a in (1.0, 2.0, 4.0):
        for C in (1.0, 10.0):
            dio = per.diophantine_check(triples, bg, og, alpha=a, C=C)
            rows += [(f"{a:g}", f"{C:g}", r.b, r.omega, r.phi, r.worst,
                      r.passes) for r in dio.rows]
            print(f"  alignment: {dio.evidence()}")
    path2 = _csv(run, "diophantine.csv",
                 "alpha,C,b,omega,phi_star,residual,pass_flag", rows)
    small = sum(1 for r in eig if r.scaled < 0.1)
    print(f"eigenfun: {small} small-residual points -> {path}, {path2}")


def cmd_accept(run: Run) -> None:
    from towerlab import acceptance
    results = acceptance.run_all()
    _csv(run, "acceptance.csv", "criterion,passed,detail,seconds",
         [(num, res.passed, f'"{res.detail}"', f"{res.seconds:.2f}")
          for (num, _), res in zip(acceptance.CHECKS, results)])
    failed = [r for r in results if not r.passed]
    if failed:
        raise CheckFailure(f"{len(failed)} acceptance criteria failed")


HANDLERS = {name[4:].replace("_", "-"): fn
            for name, fn in list(globals().items()) if name.startswith("cmd_")}

# The subcommands that read each flag (all read --out); others refuse it.
FLAG_READERS = {
    "config": set(HANDLERS) - {"accept"},
    "seed": {"corr-flow", "trunc-error", "roof-trunc", "resolvent"},
    "strict": {"tail"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="towerlab",
        description="numerical laboratory for towers and suspension semiflows")
    parser.add_argument("subcommand", choices=HANDLERS)
    parser.add_argument("--config")
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, help="overrides [run] seed")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="tail only: exit 2 on an exponential tail")
    try:
        args = parser.parse_args(argv)
        sub = args.subcommand
        for flag, readers in FLAG_READERS.items():
            if getattr(args, flag) is not None and sub not in readers:
                parser.error(f"--{flag} has no meaning for {sub}")
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on -h
        return 1 if exc.code else 0
    try:
        cfg = _load(args.config, sub, args.seed) \
            if sub in FLAG_READERS["config"] else MappingProxyType({})
        HANDLERS[sub](Run(cfg, args.out, bool(args.strict)))
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it is caught first
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except sp.EnvelopeError as exc:
        print(f"config error: [roof] does not fit [map] Y: {exc}",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

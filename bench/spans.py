"""Spans around taublab's public functions, recorded from outside the program.

Every module-level binding of a traced function is replaced by a wrapper,
not only the one in the defining module: ``taublab.search.halo_ratio``,
``taublab.ergodic.lattice_halo`` and the names ``taublab.cli`` imports are
separate bindings, and a call through any of them would otherwise bypass the
span.  Each wrapper also records its *site*, the module whose binding was
called, so calls made from ``search`` can be told apart.

Spans are kept in flat arrays in memory (index, parent, name, site, start,
end, and two integer attributes) and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

SERIALIZERS = ("halo_to_csv", "halo_to_json_dict", "sweep_to_csv", "sweep_to_json",
               "dumps_deterministic")

# defining module -> traced functions
TRACED = {
    "taublab.lattice": ("halo", "halo_ratio", "one_sided_halo_ratio", "exceeds",
                        "strong_max_witness"),
    "taublab.ergodic": ("exact_tauberian", "one_sided_exact_tauberian", "ergodic_halo",
                        "one_sided_ergodic_halo", "eval_ergodic_max"),
    "taublab.search": ("sweep", "run_strategy", "family_search", "exhaustive_search",
                       "anneal_search"),
    "taublab.formats": (*SERIALIZERS, "write_with_manifest", "load_lattice_set",
                        "build_manifest"),
    "taublab.cli": ("main",),
}

LAYERS = ("lattice", "ergodic", "search", "formats", "cli")
HOME = {"lattice": "lattice-halo", "ergodic": "ergodic-exact", "search": "cli-mixed",
        "formats": "cli-mixed", "cli": "cli-mixed"}

# Bindings outside the defining module that the home workload must reach.
REQUIRED_SITES = {
    "cli-mixed": ("search.halo_ratio", "search.one_sided_halo_ratio", "ergodic.lattice_halo",
                  "cli.halo", "cli.halo_ratio", "cli.one_sided_halo_ratio",
                  "cli.exact_tauberian", "cli.sweep", "cli.load_lattice_set",
                  "cli.write_with_manifest"),
}


def span_name(module: str, fn: str) -> str:
    layer = module.rsplit(".", 1)[1]
    return f"{layer}.serialize" if fn in SERIALIZERS else f"{layer}.{fn}"


def _dim_of_first(args, kwargs):
    return args[0].dim


def _anneal_enter(args, kwargs):
    return args[0].budget


def _halo_leave(result, args, kwargs):
    return len(result.members)


def _anneal_leave(result, args, kwargs):
    # population evaluated before the budgeted steps (search._anneal_population)
    config = args[0]
    if config.anneal_seed_block is not None:
        return 1
    return min(config.max_block, min(hi - lo + 1 for lo, hi in config.window))


def _bytes_leave(result, args, kwargs):
    path = Path(args[0])
    return path.stat().st_size + Path(str(path) + ".manifest.json").stat().st_size


def _exit_code_leave(result, args, kwargs):
    return int(result != 0)


# span name -> (attribute taken on entry, attribute taken on return)
HOOKS = {
    "lattice.halo": (_dim_of_first, _halo_leave),
    "ergodic.ergodic_halo": (_dim_of_first, None),
    "search.anneal_search": (_anneal_enter, _anneal_leave),
    "formats.write_with_manifest": (None, _bytes_leave),
    "cli.main": (None, _exit_code_leave),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.sites: list[str] = []
        self.parent = array("l")
        self.name = array("H")
        self.site = array("H")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("q")
        self.aux = array("q")
        self.stack = [-1]
        self.active = False
        self.patches: list[tuple[object, str, object, object]] = []

    def bind(self) -> None:
        """Build a wrapper for every binding of every traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "taublab" or n.startswith("taublab."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[mod_name]
            for fn in fns:
                original = getattr(home, fn)
                name = span_name(mod_name, fn)
                if name not in self.names:
                    self.names.append(name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            site = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                            self.sites.append(site)
                            wrapper = self._wrap(original, self.names.index(name),
                                                 len(self.sites) - 1, *HOOKS.get(name, (None, None)))
                            self.patches.append((mod, attr, original, wrapper))

    def _wrap(self, fn, name_id, site_id, enter, leave):
        tracer, stack, clock = self, self.stack, time.perf_counter
        parent, name, site, attr, aux = self.parent, self.name, self.site, self.attr, self.aux
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(start)
            parent.append(stack[-1])
            name.append(name_id)
            site.append(site_id)
            attr.append(enter(args, kwargs) if enter else 0)
            aux.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if leave:
                aux[i] = leave(result, args, kwargs)
            return result

        return wrapper

    def patch(self) -> None:
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)
        self.active = True

    def unpatch(self) -> None:
        self.active = False
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """One JSON header line, then the arrays' raw bytes in header order."""
        fields = ("parent", "name", "site", "start", "end", "attr", "aux")
        header = {"spans": self.count(), "names": self.names, "sites": self.sites,
                  "fields": [[f, getattr(self, f).typecode] for f in fields],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for f in fields:
                getattr(self, f).tofile(fh)

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, workload: str) -> tuple[dict, list[str]]:
        """Per-layer metrics of the spans, which are one traced round, and the
        traced names or sites that recorded no span there although this is
        their home workload."""
        n = self.count()
        names, sites = self.names, self.sites
        nid = {s: i for i, s in enumerate(names)}
        name_at, parent_at = self.name, self.parent
        attr_at, aux_at, site_at = self.attr, self.aux, self.site
        dur = [e - b for b, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(parent_at):
            if p >= 0:
                child[p] += dur[i]
        self_t = [d - c for d, c in zip(dur, child)]

        consts = {nid["ergodic.exact_tauberian"], nid["ergodic.one_sided_exact_tauberian"]}
        halos = {nid["ergodic.ergodic_halo"], nid["ergodic.one_sided_ergodic_halo"]}
        ratios = {nid["lattice.halo_ratio"], nid["lattice.one_sided_halo_ratio"]}
        sweep_id, strategy_id, anneal_id = (nid["search.sweep"], nid["search.run_strategy"],
                                            nid["search.anneal_search"])
        search_sites = {i for i, s in enumerate(sites) if s.startswith("search.")}

        calls = [0] * len(names)
        self_by_name = [0.0] * len(names)
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        halo_self = {"lattice.halo": {}, "ergodic.ergodic_halo": {}}
        members = subsets = ratio_evals = envelope_evals = 0
        anneal_evals: dict[int, int] = {}
        in_const = [False] * n
        search_ctx = [-1] * n  # nearest sweep/run_strategy ancestor-or-self name
        anneal_of = [-1] * n  # nearest anneal_search ancestor-or-self index
        site_hits = [0] * len(sites)
        for i in range(n):
            k, p = name_at[i], parent_at[i]
            calls[k] += 1
            site_hits[site_at[i]] += 1
            self_by_name[k] += self_t[i]
            self_by_layer[names[k].split(".", 1)[0]] += self_t[i]
            in_const[i] = k in consts or (p >= 0 and in_const[p])
            search_ctx[i] = k if k in (sweep_id, strategy_id) else (search_ctx[p] if p >= 0 else -1)
            anneal_of[i] = i if k == anneal_id else (anneal_of[p] if p >= 0 else -1)
            label = names[k]
            if label in halo_self:
                by_dim = halo_self[label]
                by_dim[attr_at[i]] = by_dim.get(attr_at[i], 0.0) + self_t[i]
                if label == "lattice.halo":
                    members += aux_at[i]
            if k in halos and p >= 0 and in_const[p]:
                subsets += 1
            if k in ratios and site_at[i] in search_sites:
                ratio_evals += 1
                if p >= 0 and search_ctx[p] == sweep_id:
                    envelope_evals += 1
                if p >= 0 and anneal_of[p] >= 0:
                    anneal_evals[anneal_of[p]] = anneal_evals.get(anneal_of[p], 0) + 1
        budget = spent = 0
        for i in range(n):
            if name_at[i] == anneal_id:
                budget += attr_at[i]
                spent += anneal_evals.get(i, 0) - aux_at[i]

        def c(label):
            return calls[nid[label]]

        def s(label):
            return self_by_name[nid[label]]

        lh, eh = halo_self["lattice.halo"], halo_self["ergodic.ergodic_halo"]
        n_consts = sum(calls[k] for k in consts)
        metrics = {
            "lattice.halo_1d.self_s": lh.get(1, 0.0),
            "lattice.halo_2d.self_s": lh.get(2, 0.0),
            "lattice.halo_nd.self_s": sum(v for d, v in lh.items() if d >= 3),
            "lattice.halo.calls": c("lattice.halo"),
            "lattice.halo.members": members,
            "lattice.halo_ratio.calls": c("lattice.halo_ratio"),
            "lattice.halo_ratio.self_s": s("lattice.halo_ratio"),
            "lattice.one_sided_halo_ratio.calls": c("lattice.one_sided_halo_ratio"),
            "lattice.one_sided_halo_ratio.self_s": s("lattice.one_sided_halo_ratio"),
            "lattice.exceeds.calls": c("lattice.exceeds"),
            "lattice.strong_max_witness.calls": c("lattice.strong_max_witness"),
            "lattice.strong_max_witness.self_s": s("lattice.strong_max_witness"),
            "ergodic.exact_tauberian.calls": c("ergodic.exact_tauberian"),
            "ergodic.exact_tauberian.self_s": s("ergodic.exact_tauberian"),
            "ergodic.one_sided_exact_tauberian.calls": c("ergodic.one_sided_exact_tauberian"),
            "ergodic.one_sided_exact_tauberian.self_s": s("ergodic.one_sided_exact_tauberian"),
            "ergodic.halo_1d.self_s": eh.get(1, 0.0),
            "ergodic.halo_nd.self_s": sum(v for d, v in eh.items() if d >= 2),
            "ergodic.ergodic_halo.calls": c("ergodic.ergodic_halo"),
            "ergodic.one_sided_ergodic_halo.self_s": s("ergodic.one_sided_ergodic_halo"),
            "ergodic.subsets_per_constant": subsets / n_consts if n_consts else 0.0,
            "ergodic.eval_ergodic_max.calls": c("ergodic.eval_ergodic_max"),
            "ergodic.eval_ergodic_max.self_s": s("ergodic.eval_ergodic_max"),
            "search.sweep.self_s": s("search.sweep"),
            "search.family_search.self_s": s("search.family_search"),
            "search.exhaustive_search.self_s": s("search.exhaustive_search"),
            "search.anneal_search.self_s": s("search.anneal_search"),
            "search.ratio_evals": ratio_evals,
            "search.envelope_evals": envelope_evals,
            "search.anneal.evals_per_step": spent / budget if budget else 0.0,
            "formats.serialize.self_s": s("formats.serialize"),
            "formats.write_with_manifest.self_s": s("formats.write_with_manifest"),
            "formats.bytes_written": sum(a for k, a in zip(name_at, aux_at)
                                         if k == nid["formats.write_with_manifest"]),
            "formats.load_lattice_set.self_s": s("formats.load_lattice_set"),
            "cli.main.calls": c("cli.main"),
            "cli.main.self_s": s("cli.main"),
            "cli.exit_nonzero": sum(a for k, a in zip(name_at, aux_at) if k == nid["cli.main"]),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_by_layer[layer]

        missing = [label for k, label in enumerate(names)
                   if HOME[label.split(".", 1)[0]] == workload and calls[k] == 0]
        hit_sites = {sites[i] for i, h in enumerate(site_hits) if h}
        missing += [s for s in REQUIRED_SITES.get(workload, ()) if s not in hit_sites]
        return metrics, missing

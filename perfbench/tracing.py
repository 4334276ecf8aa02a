"""Spans around aimg's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every aimg module that
binds it (``derived_subgroup`` is bound in matgroup, opengroup, families,
surjectivity and the package itself), so calls made inside the package
are seen too.  Methods are patched on their class.  A span's self time is
its duration minus the time of the spans it encloses.  Counters ride on
the same spans: elements materialized, ramp saturation levels, cosets,
shortcut use.

``modmatrix.tmul`` is left unwrapped: it runs millions of times per pass,
so a span there would mostly time itself.  Its cost shows up as
``matgroup.materialize`` self time.
"""

import sys
import time
from collections import defaultdict

from aimg import families, matgroup, opengroup

# Traced functions, named "<aimg module>.<function>".
FUNCTIONS = (
    "matgroup.derived_subgroup",
    "matgroup.center",
    "matgroup.quotient_group",
    "matgroup.intermediate_subgroups",
    "opengroup.commutator_open",
    "opengroup.minimal_level",
    "opengroup.intersect_sl2",
    "opengroup.det_image",
    "families.build_member",
    "families.commutator_shortcut",
    "modgenus.coset_action",
    "surjectivity.surjectivity_check",
    "ratfunc.solve_left_factor",
    "ratfunc.rational_fibers",
    "ratfunc.moebius_equivalent",
    "arithcond.eval_condition",
    "classifier.load_catalog",
    "classifier.recover_G0",
    "classifier.classify",
    "classifier.check_curve",
)

SPANS = FUNCTIONS + (
    "matgroup.materialize", "opengroup.finite_image", "families.FamilySpec")

CACHES = (("opengroup.full_gl2", opengroup.full_gl2),
          ("opengroup.full_sl2", opengroup.full_sl2))


def _aimg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "aimg" or name.startswith("aimg.")) and m is not None]


def clear_caches():
    """Empty every lru_cache in aimg, so that a pass starts cold."""
    for mod in _aimg_modules():
        for value in list(vars(mod).values()):
            if callable(value) and hasattr(value, "cache_clear"):
                value.cache_clear()


class Stats:
    """Span totals and counters of one phase (set-up or passes)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def count(self, key, n=1):
        self.counts[key] += n

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def read_caches(self):
        """Add the statistics the traced lru_caches gathered since they
        were last cleared."""
        for name, fn in CACHES:
            info = fn.cache_info()
            self.count(name + ".hits", info.hits)
            self.count(name + ".misses", info.misses)


class Tracer:
    """Records into ``stats`` while it is set; passes calls straight
    through while it is None."""

    def __init__(self):
        self.stats = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stats = self.stats
            if stats is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls[name] += 1
                stats.self_s[name] += dt - inner
            if observe is not None:
                observe(stats, out, args)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod in _aimg_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        mods = {m.__name__: m for m in _aimg_modules()}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            fn = getattr(mods["aimg." + module], attr)
            self._replace_everywhere(
                fn, self._wrap(name, fn, OBSERVERS.get(name)))

        FMG = matgroup.FiniteMatrixGroup
        traced_materialize = self._wrap(
            "matgroup.materialize", FMG._materialize,
            lambda st, out, args: st.count(
                "matgroup.materialize.elements", len(args[0]._elements)))

        def first_access(group):
            # only the first access materializes; later ones are free
            if group._elements is None:
                traced_materialize(group)

        self._set(FMG, "_materialize", first_access)
        self._set(FMG, "from_elements", classmethod(self._wrap(
            "matgroup.materialize", FMG.__dict__["from_elements"].__func__,
            lambda st, out, args: st.count(
                "matgroup.materialize.elements", len(out._elements)))))
        self._set(opengroup.OpenSubgroup, "finite_image", self._wrap(
            "opengroup.finite_image", opengroup.OpenSubgroup.finite_image))
        self._set(families.FamilySpec, "__post_init__", self._wrap(
            "families.FamilySpec", families.FamilySpec.__post_init__))

    def uninstall(self):
        """Put every original back, so untraced passes run unwrapped."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def per_layer_metrics(setup, passes, n):
    """Per-layer figures for one set-up plus one pass: the traced set-up's
    totals plus the mean of ``n`` traced passes.  Returns name -> (value,
    unit)."""

    def total(table, key):
        return getattr(setup, table)[key] + getattr(passes, table)[key] / n

    out = {}
    for name in SPANS:
        out[name + ".calls"] = (total("calls", name), "count")
        out[name + ".self_s"] = (total("self_s", name), "s")
    elements = total("counts", "matgroup.materialize.elements")
    busy = total("self_s", "matgroup.materialize")
    out["matgroup.materialize.elements"] = (elements, "count")
    out["matgroup.materialize.elements_per_s"] = (
        elements / busy if busy else 0.0, "1/s")
    out["opengroup.commutator_open.saturation_level_max"] = (max(
        setup.maxima["opengroup.commutator_open.saturation_level"],
        passes.maxima["opengroup.commutator_open.saturation_level"]),
        "level")
    for name, _ in CACHES:
        hits = total("counts", name + ".hits")
        out[name + ".hit_ratio"] = (
            _ratio(hits, hits + total("counts", name + ".misses")), "ratio")
    out["families.shortcut.applied_ratio"] = (_ratio(
        total("counts", "families.shortcut.applied"),
        total("calls", "families.commutator_shortcut")), "ratio")
    out["classifier.member.shortcut_ratio"] = (_ratio(
        total("counts", "classifier.member.shortcut"),
        total("counts", "classifier.member")), "ratio")
    out["modgenus.coset_action.cosets"] = (
        total("counts", "modgenus.coset_action.cosets"), "count")
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _observe_commutator(st, res, args):
    st.maximum("opengroup.commutator_open.saturation_level",
               res.saturation_level)


def _observe_shortcut(st, res, args):
    if res is not families.NOT_APPLICABLE:
        st.count("families.shortcut.applied")


def _observe_cosets(st, act, args):
    st.count("modgenus.coset_action.cosets", act.degree)


def _observe_classify(st, report, args):
    for entry in report.entries:
        for m in entry.members:
            st.count("classifier.member")
            if m.method == "shortcut":
                st.count("classifier.member.shortcut")


OBSERVERS = {
    "opengroup.commutator_open": _observe_commutator,
    "families.commutator_shortcut": _observe_shortcut,
    "modgenus.coset_action": _observe_cosets,
    "classifier.classify": _observe_classify,
}


"""The library holds what the CLI runs, plus the references its tests compare
against: every public module-level function or class of `src/trafficamp` is
named somewhere in the package other than `__init__.py`, or is listed below.
So is every public method or property of a public class, and every optional
parameter of a public function is passed by some package call, or is listed."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "trafficamp"

# public names that no other package code reaches, each with its reason
ALLOWED = {
    "eval_w_brute": "oracle: literal tuple sum behind eval_w",
    "eval_z_brute": "oracle: literal distinct-index sum behind eval_z",
    "onsager_b_brute": "oracle: tuple enumeration behind onsager_b",
    "weingarten_limit": "oracle: Weingarten calculus behind the analytic cactus values",
    "enumerate_two_edge_connected": "the diagrams of acceptance criterion 3",
    "enumerate_connected_multigraphs": "the diagrams of acceptance criterion 1",
    "cumulants_to_moments": "the forward transform of acceptance criterion 2",
    "fundamental_bound_audit": "the norm-bound audit, to be wired into cactus-audit",
    "eval_z": "public single-call API for one z-basis value",
    "puncture": "public single-call API; generate punctures in place",
    "read_matrix": "reads the TAMP0001 files that gen and amp write",
}

# public methods and properties that no package code reaches, with the reason
ALLOWED_MEMBERS = {
    "Diagram.with_roots": "the one way to re-root a diagram; tests build rooted "
                          "variants of the catalog with it",
}

# optional parameters of public functions that no package call passes, with the
# reason; the functions that ALLOWED lists are exempt, as only tests call them
ALLOWED_PARAMS = {
    "main.argv": "entry point: the console script passes none, tests pass argv",
    "empirical_state.max_power": "the calibration tests cap the powers at 4",
}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name[:-3], ast.parse(path.read_text())


def _public_and_referenced():
    public, referenced = {}, set()
    for module, tree in _trees():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public[node.name] = module + ".py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return public, referenced


def _members():
    """(Class.member, member) per public method or property of a public class."""
    for _, tree in _trees():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    names = ([node.name] if isinstance(node, ast.FunctionDef) else
                             [t.id for t in node.targets if isinstance(t, ast.Name)]
                             if isinstance(node, ast.Assign) else [])
                    for name in names:
                        if not name.startswith("_"):
                            yield "%s.%s" % (cls.name, name), name


def _optional_params(fn):
    """(position or None, name) per parameter of fn that has a default."""
    args = fn.args
    first = len(args.args) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(args.args) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls():
    """Per callee name (a function's, or an attribute's), the (number of
    positional arguments, keyword names) of each package call, None for a count
    or a name set a splat (*args, **kwargs) leaves open."""
    calls = {}
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (None if starred else len(node.args),
                     None if None in keywords else keywords))
    return calls


def test_every_public_name_is_used_by_the_package_or_allowed():
    public, referenced = _public_and_referenced()
    unused = sorted("%s.%s" % (public[name][:-3], name) for name in public
                    if name not in referenced and name not in ALLOWED)
    assert not unused, "public names only tests reach: %s" % ", ".join(unused)


def test_every_allowed_name_exists_and_is_otherwise_unused():
    public, referenced = _public_and_referenced()
    assert sorted(n for n in ALLOWED if n not in public or n in referenced) == []


def test_every_public_member_is_used_by_the_package_or_allowed():
    _, referenced = _public_and_referenced()
    members = dict(_members())
    unused = sorted(m for m, name in members.items()
                    if name not in referenced and m not in ALLOWED_MEMBERS)
    assert not unused, "public members only tests reach: %s" % ", ".join(unused)
    assert sorted(m for m in ALLOWED_MEMBERS
                  if m not in members or members[m] in referenced) == []


def test_every_optional_parameter_is_passed_by_the_package_or_allowed():
    calls = _calls()
    unpassed = []
    for _, tree in _trees():
        for fn in tree.body:
            if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                    or fn.name in ALLOWED):
                continue
            for pos, name in _optional_params(fn):
                if name.startswith("_"):
                    continue
                if not any(npos is None or keys is None or name in keys
                           or pos is not None and npos > pos
                           for npos, keys in calls.get(fn.name, [])):
                    unpassed.append("%s.%s" % (fn.name, name))
    assert sorted(p for p in unpassed if p not in ALLOWED_PARAMS) == [], \
        "optional parameters no package call passes"
    assert sorted(p for p in ALLOWED_PARAMS if p not in unpassed) == []

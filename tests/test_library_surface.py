"""The library holds what the CLI runs, plus the references its tests compare
against: every public module-level function or class of `src/trafficamp` is
named somewhere in the package other than `__init__.py`, or is listed below.
So is every public method, property or dataclass field of a public class, as
an attribute (`obj.member`, and a classmethod as `Class.member`), and every
optional parameter of a public function is passed by some package call, or is
listed.  Every function whose spans benchmark/tracer.py
reads by name is a public function of its layer, or is listed, and the SE
kernel functions it reads reach no other public state_evolution function."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trafficamp"

# public names that no other package code reaches, each with its reason
ALLOWED = {
    "eval_w_brute": "oracle: literal tuple sum behind eval_w",
    "eval_z_brute": "oracle: literal distinct-index sum behind eval_z",
    "onsager_b_brute": "oracle: tuple enumeration behind onsager_b",
    "weingarten_limit": "oracle: Weingarten calculus behind the analytic cactus values",
    "enumerate_two_edge_connected": "the diagrams of acceptance criterion 3",
    "enumerate_connected_multigraphs": "the diagrams of acceptance criterion 1",
    "cumulants_to_moments": "the forward transform of acceptance criterion 2",
    "moments_to_cumulants": "the inverse transform of acceptance criterion 2",
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


# "<layer>.<function>" names that benchmark/tracer.py reads and that name no
# function of the layer, with the reason
ALLOWED_TRACED = {
    "graphpoly.eval_open_cactus_matrix": "deleted when the delocalization audit moved to "
                                         "eval_w; graphpoly.open_cactus.self_s reads 0 until "
                                         "the benchmark reads counters kept by the package",
}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name[:-3], ast.parse(path.read_text())


def _public_and_referenced():
    """The public names, each with its module file; the names the package
    references (as names, attributes or imports); and its attribute reads, each
    as `member` and, when read off a name or attribute `owner`, `owner.member`."""
    public, referenced, attributes = {}, set(), set()
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
                attributes.add(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner:
                    attributes.add("%s.%s" % (owner, node.attr))
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return public, referenced, attributes


def _members():
    """(Class.member, the read that uses it) per public method, property or
    dataclass field of a public class: `Class.member` for a classmethod, `member`
    for any other."""
    for _, tree in _trees():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    names = ([node.name] if isinstance(node, ast.FunctionDef) else
                             [t.id for t in node.targets if isinstance(t, ast.Name)]
                             if isinstance(node, ast.Assign) else
                             [node.target.id] if isinstance(node, ast.AnnAssign)
                             and isinstance(node.target, ast.Name) else [])
                    classmethod = isinstance(node, ast.FunctionDef) and any(
                        getattr(d, "id", None) == "classmethod" for d in node.decorator_list)
                    for name in names:
                        if not name.startswith("_"):
                            member = "%s.%s" % (cls.name, name)
                            yield member, member if classmethod else name


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
    public, referenced, _ = _public_and_referenced()
    unused = sorted("%s.%s" % (public[name][:-3], name) for name in public
                    if name not in referenced and name not in ALLOWED)
    assert not unused, "public names only tests reach: %s" % ", ".join(unused)


def test_every_allowed_name_exists_and_is_otherwise_unused():
    public, referenced, _ = _public_and_referenced()
    assert sorted(n for n in ALLOWED if n not in public or n in referenced) == []


def test_every_public_member_is_used_by_the_package_or_allowed():
    # a member counts as used only when read as an attribute: a variable `cactus`
    # or `gammas` elsewhere does not reach DiagramClass.cactus or SEKernel.gammas; and
    # a classmethod only when read off its class: EnsembleSpec.from_json being
    # read does not reach another class's from_json
    _, _, referenced = _public_and_referenced()
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


def _tracer():
    """benchmark/tracer.py's tree, and the value node of each of its top-level
    assignments by name."""
    tree = ast.parse((ROOT / "benchmark" / "tracer.py").read_text())
    return tree, {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)}


def _traced_names():
    """The "<layer>.<function>" strings of benchmark/tracer.py that are not the
    names of its PER_LAYER metrics: the spans that its metrics read."""
    tree, values = _tracer()
    layers = ast.literal_eval(values["LAYERS"])
    metrics = {name for name, _, _ in ast.literal_eval(values["PER_LAYER"])}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"(\w+)\.\w+", node.value)
            and node.value.split(".")[0] in layers and node.value not in metrics}


def test_every_function_the_tracer_reads_is_a_public_function_of_its_layer():
    functions = {"%s.%s" % (module, node.name) for module, tree in _trees()
                 for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    traced = _traced_names()
    assert "amp.empirical_state" in traced and "cli.write_csv" in traced
    assert sorted(name for name in traced if name not in functions) == sorted(ALLOWED_TRACED)


def test_the_se_kernel_spans_reach_no_other_state_evolution_span():
    # the tracer sums state_evolution.se.self_s over the spans of SE_KERNELS by
    # name; a public function that one of them reaches, directly or through
    # private functions, would get a span of its own and take its time out of
    # that metric, as a public recursion behind the presets would
    kernels = ast.literal_eval(_tracer()[1]["SE_KERNELS"])
    tree = dict(_trees())["state_evolution"]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert kernels and all(name.startswith("state_evolution.") for name in kernels)
    for kernel in kernels:
        root = kernel.split(".", 1)[1]
        assert root in functions and not root.startswith("_"), kernel
        reached, todo = set(), [root]
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                name = getattr(node, "id", None)
                if name in functions and name != root and name not in reached:
                    reached.add(name)
                    todo.append(name)
        assert sorted(n for n in reached if not n.startswith("_")) == [], kernel
        assert "_se_blocks" in reached, kernel

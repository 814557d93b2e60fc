"""The library holds what the CLI runs, plus the references its tests compare
against: every public module-level function or class of `src/trafficamp` is
named somewhere in the package other than `__init__.py`, or is listed below."""

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


def _public_and_referenced():
    public, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return public, referenced


def test_every_public_name_is_used_by_the_package_or_allowed():
    public, referenced = _public_and_referenced()
    unused = sorted("%s.%s" % (public[name][:-3], name) for name in public
                    if name not in referenced and name not in ALLOWED)
    assert not unused, "public names only tests reach: %s" % ", ".join(unused)


def test_every_allowed_name_exists_and_is_otherwise_unused():
    public, referenced = _public_and_referenced()
    assert sorted(n for n in ALLOWED if n not in public or n in referenced) == []

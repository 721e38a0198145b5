import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import specmd
from specmd.oracles import _NEEDS

DELETED = ("GradSample", "power_value_grad", "sym_identity", "sym_zeros",
           "eval_Psi", "resolve_oracle", "schedule_at", "mat_power_apply",
           "relative_step", "sym_from")


def test_every_exported_name_resolves():
    missing = [name for name in specmd.__all__ if not hasattr(specmd, name)]
    assert missing == []
    assert len(set(specmd.__all__)) == len(specmd.__all__)


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in specmd.__all__
        assert not hasattr(specmd, name)


def test_every_definition_has_a_caller():
    # a top-level function or class that nothing in the package names
    # outside its own definition (exports aside) has no caller: delete it
    package = Path(specmd.__file__).parent
    sources = {path.name: path.read_text().splitlines()
               for path in package.glob("*.py") if path.name != "__init__.py"}
    orphans = []
    for name, lines in sources.items():
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno - 1, node.end_lineno)
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for other, body in sources.items()
                       for i, line in enumerate(body)
                       if other != name or i not in own):
                orphans.append(f"{name}:{node.name}")
    assert orphans == []


def test_only_check_states_a_number_rule():
    # every number an input must be is one of oracles._check's phrases; a
    # ValueError raised elsewhere that states one (or an ad-hoc ">=") is a
    # second copy of the rule: route the input through _check instead
    rule = re.compile("must be.*(" + "|".join(map(re.escape, _NEEDS)) + "|>=)",
                      re.S)
    copies = []
    for path in sorted(Path(specmd.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        own = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name == "_check" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and id(node) not in own
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"
                    and rule.search(ast.get_source_segment(text, node))):
                copies.append(f"{path.name}:{node.lineno}")
    assert copies == []


def test_only_gen_instance_symmetrizes_a_matrix():
    # a matrix that enters the package is checked, never repaired: a
    # (m + m.T) / 2 anywhere but in gen_instance, which builds its own
    # matrix, would silently turn asymmetric input into another matrix
    half_sum = re.compile(r"\.T\s*\)\s*/\s*2")
    repairs = []
    for path in sorted(Path(specmd.__file__).parent.glob("*.py")):
        text = path.read_text()
        own = {i for fn in ast.parse(text).body
               if isinstance(fn, ast.FunctionDef) and fn.name == "gen_instance"
               for i in range(fn.lineno, fn.end_lineno + 1)}
        repairs += [f"{path.name}:{i}" for i, line in
                    enumerate(text.splitlines(), 1)
                    if i not in own and half_sum.search(line)]
    assert repairs == []


def test_text_is_read_only_by_parse_and_loadtxt():
    # a value's text goes through oracles._parse and a row of numbers
    # through np.loadtxt: argparse's int and float, YAML 1.1's number and
    # bool resolvers and hand-written float() loops each judged text their
    # own way
    second_readers = (r"\btype=int\b", r"\btype=float\b", r"yaml\.safe_load",
                      r"float\(v\) for v in", r"fromiter\(map\(float")
    found = [f"{path.name}: {reader}"
             for path in sorted(Path(specmd.__file__).parent.glob("*.py"))
             for reader in second_readers
             if re.search(reader, path.read_text())]
    assert found == []


def test_import_loads_no_scipy():
    # the LAPACK binding comes from numpy's own library: scipy.linalg would
    # add hundreds of milliseconds and tens of MB to every start-up. YAML is
    # loaded only to read a campaign file.
    code = ("import sys, specmd; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'yaml', '_yaml')))")
    src = str(Path(specmd.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"

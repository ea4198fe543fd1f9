"""The exit contract under mutation: every run of the command line exits
0, 1 or 2 and raises nothing out of cli.main (so prints no traceback); a
failure prints exactly one stderr line (a pipeline tolerance miss reports
on stdout alone), and a success prints nothing there but one-line library
warnings and writes JSON that follows its bundled schema.

Two seeded grids:

- the CSV grid: seeded traces through fit-resonator (with and without
  --delay), fit-lorentzian and fit-rabi, each mutated one way: emptied,
  cut to its header or to 1-8 rows, one column set to nan, +-inf, 0,
  +-1e308 or 1e-320 in one row or in all rows, one column made constant,
  negated or scaled by 1e+-300, the rows reversed, duplicated or shuffled,
  a column added or dropped, a byte that is not UTF-8 and a NUL byte;
- the config grid: every key of config.KEYS, set on each shipped config
  that holds the key's section, a key the shipped configs no longer set,
  and each list element of a shipped config, set to one of 0, -1, 0.5,
  nan, +-inf, "x", null, [], {}, true and 1e-300, or deleted, through each
  verb that reads that config; a seeded sample of the key cases runs, with
  a case of every key and every list element case.

An input error ("error: ...") names the data file of a fit verb, and the
key or the file of a config; an error in a list element names the list's
key and the element's index, as in transmissions[0]. An invalid value
the numerics meet ("invalid value: ...") and a solver failure name what
failed. Samples above 1e150 square to inf, and +-1e308 once made a LAPACK
call spin for good, so those cases run in one child interpreter under a
timeout: a hang fails its cases instead of stalling the suite.
"""

import copy
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

import cqedkit
from cqedkit import SynthSpec, io, synth_rabi, synth_reflection
from cqedkit.cli import main
from cqedkit.config import KEYS
from cqedkit.fitters import lorentzian_model
from test_cli import SHIPPED_RUNS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = str(Path(cqedkit.__file__).resolve().parents[1])
# a child interpreter's runs together must return within this
CHILD_TIMEOUT_S = 120
# the seeded sample of the config grid's key cases this file runs
CONFIG_SAMPLE = 1200
STDERR_PREFIXES = ("error: ", "solver failure: ", "invalid value: ")


def _tables():
    """header and seeded (n, k) float table of each fit verb's input"""
    refl = synth_reflection(SynthSpec(
        kind="reflection_trace", seed=1401, snr_db=30.0,
        truth={"a_re": 0.9, "a_im": 0.1, "ql": 6000.0, "qc": 12000.0, "theta": 0.15,
               "f_r_ghz": 5.2816},
        grid={"f_min_ghz": 5.2712, "f_max_ghz": 5.2920, "n_f": 201}))
    f = np.linspace(5.40, 5.48, 201)
    dip = lorentzian_model(f, 5.44, 0.004, 12.0, -3.0)
    dip = dip + np.random.default_rng(1402).normal(0.0, 0.2, f.size)
    t, y = synth_rabi(SynthSpec(
        kind="rabi_trace", seed=1403, snr_db=20.0,
        truth={"A": 1.0, "T_R": 260.0, "omega": 0.19634954084936207, "B": 0.0, "a": -0.0004,
               "b": 0.5},
        grid={"t_max_ns": 1000.0, "n_t": 201}))
    trace = np.column_stack([refl.freqs_ghz, refl.values.real, refl.values.imag])
    return {"resonator": (",".join(io.TRACE_HEADER), trace),
            "magnitude": (",".join(io.MAG_HEADER), np.column_stack([f, dip])),
            "rabi": (",".join(io.RABI_HEADER), np.column_stack([t, y]))}


def _text(header, table):
    return "\n".join([header, *(",".join(map(repr, row.tolist())) for row in table)]) + "\n"


def _mutations(header, table):
    """(name, file bytes) of every mutation of one input"""
    n = len(table)
    names = header.split(",")
    rng = random.Random(1404)
    yield "empty", b""
    yield "header-only", f"{header}\n".encode()
    for rows in range(1, 9):
        yield f"rows-{rows}", _text(header, table[:rows]).encode()
    for c, name in enumerate(names):
        for value in (math.nan, math.inf, -math.inf, 0.0, 1e308, -1e308, 1e-320):
            for where, sl in (("one", slice(n // 2, n // 2 + 1)), ("all", slice(None))):
                t = table.copy()
                t[sl, c] = value
                yield f"{name}-{value!r}-{where}", _text(header, t).encode()
        for how, edit in (("constant", lambda col: np.full_like(col, col[0])),
                          ("negated", lambda col: -col),
                          ("scaled-1e300", lambda col: col * 1e300),
                          ("scaled-1e-300", lambda col: col * 1e-300)):
            t = table.copy()
            t[:, c] = edit(t[:, c])
            yield f"{name}-{how}", _text(header, t).encode()
    yield "reversed", _text(header, table[::-1]).encode()
    yield "duplicated", _text(header, np.repeat(table, 2, axis=0)).encode()
    order = list(range(n))
    rng.shuffle(order)
    yield "shuffled", _text(header, table[order]).encode()
    yield "extra-column", _text(header + ",extra", np.column_stack([table, table[:, -1]])).encode()
    yield "missing-column", _text(",".join(names[:-1]), table[:, :-1]).encode()
    lines = _text(header, table).encode().split(b"\n")
    yield "undecodable", b"\n".join([*lines[:3], lines[3] + b"\xff", *lines[4:]])
    yield "nul-byte", b"\n".join([*lines[:3], lines[3] + b"\x00", *lines[4:]])


CSV_VERBS = {"fit-resonator": ("resonator", []), "fit-resonator-delay": ("resonator", ["--delay"]),
             "fit-lorentzian": ("magnitude", []), "fit-rabi": ("rabi", [])}


def _csv_cases():
    """case id -> (argv template, input bytes, whether it runs in the child);
    {d} in the argv is the case's directory"""
    tables = _tables()
    cases = {}
    for verb, (kind, extra) in CSV_VERBS.items():
        argv = [verb.removesuffix("-delay"), "{d}/data.csv", *extra, "--out", "{d}/fit.json",
                "--plot", "{d}/fit.svg"]
        if verb.startswith("fit-resonator"):
            argv += ["--residuals", "{d}/resid.csv"]
        for name, data in _mutations(*tables[kind]):
            huge = bool(np.abs(_floats(data)).max(initial=0.0) > 1e150)
            cases[f"{verb}:{name}"] = (argv, data, huge)
    return cases


def _floats(data):
    """every cell of a CSV that reads as a float"""
    cells = data.decode(errors="replace").replace("\n", ",").split(",")
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            pass
    return np.array(out, dtype=float)


CSV_CASES = _csv_cases()
# the child's argv is the manifest; each case prints one JSON line as it ends
CHILD = """
import contextlib, io, json, sys
from cqedkit.cli import main
for case, argv in json.load(open(sys.argv[1])):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except BaseException as exc:
            code = f"escaped: {exc!r}"
    print(json.dumps([case, code, out.getvalue(), err.getvalue()]), flush=True)
"""


def _case_dir(root, case):
    d = root / case.replace(":", "_")
    d.mkdir(parents=True)
    return d


@pytest.fixture(scope="module")
def child_results(tmp_path_factory):
    """case id -> (exit code, stdout, stderr, case directory) of every huge-sample
    case, run together in one child interpreter under CHILD_TIMEOUT_S; a
    case the child did not finish is missing"""
    root = tmp_path_factory.mktemp("child")
    manifest, dirs = [], {}
    for case, (argv, data, huge) in CSV_CASES.items():
        if huge:
            dirs[case] = _case_dir(root, case)
            (dirs[case] / "data.csv").write_bytes(data)
            manifest.append([case, [a.format(d=dirs[case]) for a in argv]])
    (root / "manifest.json").write_text(json.dumps(manifest))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    try:
        out = subprocess.run([sys.executable, "-c", CHILD, str(root / "manifest.json")],
                             env=env, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S).stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        out = out.decode() if isinstance(out, bytes) else out
    results = {}
    for line in out.splitlines():
        case, code, out, err = json.loads(line)
        results[case] = (code, out, err, dirs[case])
    return results


def _check(code, out, err, written, where):
    """the contract for one run: its exit code, its stdout and stderr, and
    on exit 0 the schema of each JSON file it wrote; an input error must
    match one of the patterns in where"""
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 0:
        # a library warning takes a line of its own
        assert all(line.startswith("warning: ") for line in lines), err
        for path, schema in written.items():
            if schema is not None and path.exists():
                jsonschema.validate(io.read_json(path), io.load_schema(schema))
    elif not lines:
        # a pipeline tolerance miss reports on stdout alone
        assert code == 2 and out.splitlines()[-1].startswith("FAIL: "), (out, err)
    else:
        # a failure prints its one line and nothing else
        assert len(lines) == 1 and lines[0].startswith(STDERR_PREFIXES), err
        if lines[0].startswith("error: "):
            assert any(re.search(w, lines[0]) for w in where), (where, lines[0])


@pytest.mark.parametrize("case", [c for c, (_, _, huge) in CSV_CASES.items() if not huge])
def test_csv_grid(tmp_path, capsys, case):
    argv, data, _ = CSV_CASES[case]
    (tmp_path / "data.csv").write_bytes(data)
    code = main([a.format(d=tmp_path) for a in argv])
    captured = capsys.readouterr()
    _check(code, captured.out, captured.err, {tmp_path / "fit.json": "fit_result"},
           [re.escape(str(tmp_path / "data.csv"))])


@pytest.mark.parametrize("case", [c for c, (_, _, huge) in CSV_CASES.items() if huge])
def test_csv_grid_huge_samples(child_results, case):
    assert case in child_results, f"no result within {CHILD_TIMEOUT_S} s: a hang"
    code, out, err, d = child_results[case]
    _check(code, out, err, {d / "fit.json": "fit_result"}, [re.escape(str(d / "data.csv"))])


# the verbs that read each shipped config, with their output arguments ({d}
# is the case's directory) and the schema of each file they write: the
# config-driven runs of the CLI tests' table of shipped runs
CONFIG_VERBS = {}
for _run in SHIPPED_RUNS:
    _verb, _config, _prepare, _args, _files, _ = _run.values
    if _prepare is None:
        CONFIG_VERBS.setdefault(_config, []).append(([_verb, *_args], _files))

LEAF_VALUES = {"0": 0, "-1": -1, "0.5": 0.5, "nan": math.nan, "inf": math.inf,
               "-inf": -math.inf, "x": "x", "null": None, "list": [], "mapping": {},
               "true": True, "1e-300": 1e-300}
DELETE = "deleted"
# a key the shipped configs set before it was retired stays a key of the
# grid, after the other keys of its section, so an old config that still
# sets it is run; deleting it runs the shipped config as it is
RETIRED = [("sweep", "maps_to")]


def _leaves(node, path=()):
    """the key path of every value in a config that is not a mapping; a
    list's elements follow it, each path ending in the element's index"""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)
            if isinstance(value, list):
                yield from _leaves(value, (*path, key))


def _sections(tree):
    """(name, key path) of every section of the key table that a config
    holds; a synth.truth.<kind> or synth.grid.<kind> section only where
    synth.kind is <kind>"""
    for name in KEYS:
        path = name.split(".")
        if len(path) == 3 and path[2] != tree.get("synth", {}).get("kind"):
            continue
        node = tree
        for key in path[:2]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            yield name, tuple(path[:2])


def _config_grid():
    """the one-leaf cases, each (config, verb index, leaf path, value name):
    those of every key of the table, by (section, key), set on each shipped
    config that holds its section; those of the keys each shipped config
    sets, in the order it sets them; and those of list elements"""
    keys, shipped, elements = {}, [], []
    for stem, verbs in CONFIG_VERBS.items():
        tree = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text())

        def cases(leaf):
            return [(stem, v, leaf, value) for value in [*LEAF_VALUES, DELETE]
                    for v in range(len(verbs))]

        for name, path in _sections(tree):
            for key in [*KEYS[name], *(k for s, k in RETIRED if s == name)]:
                keys.setdefault((name, key), []).extend(cases((*path, key)))
        for section, key in RETIRED:
            if section in tree:
                tree[section][key] = None
        for leaf in _leaves(tree):
            (elements if isinstance(leaf[-1], int) else shipped).extend(cases(leaf))
    return keys, shipped, elements


KEY_GRID, SHIPPED_GRID, ELEMENT_GRID = _config_grid()
KEY_OF = {case: key for key, cases in KEY_GRID.items() for case in cases}
# the top-level sections each verb can read
VERB_SECTIONS = {"simulate-qubit": {"qubit"}, "simulate-cavity": {"cavity"},
                 "sweep-gate": {"qubit", "cavity", "system", "sweep"},
                 "synth": {"qubit", "system", "sweep", "synth"},
                 "pipeline": {"qubit", "cavity", "system", "sweep", "pipeline"}}


def _sets_what_it_reads(case):
    """whether a case sets its key through a verb that can read it"""
    stem, verb, leaf, value = case
    return value != DELETE and leaf[0] in VERB_SECTIONS[CONFIG_VERBS[stem][verb][0][0]]


# a seeded sample of the cases of keys the shipped configs set, drawn as
# before the grid took its keys from the table, so the cases run here stay
# the same; for each key the sample misses, one case that sets it through
# a verb that reads it; every list element case
_rng = random.Random(1405)
CONFIG_CASES = _rng.sample(SHIPPED_GRID, CONFIG_SAMPLE)
CONFIG_CASES += [_rng.choice(list(filter(_sets_what_it_reads, KEY_GRID[key]))) for key in KEY_GRID
                 if key not in {KEY_OF[case] for case in CONFIG_CASES}] + ELEMENT_GRID


@pytest.mark.parametrize("stem, verb, leaf, value", CONFIG_CASES,
                         ids=[f"{c}:{CONFIG_VERBS[c][v][0][0]}:"
                              f"{'.'.join(map(str, leaf))}={value}"
                              for c, v, leaf, value in CONFIG_CASES])
def test_config_grid(tmp_path, capsys, stem, verb, leaf, value):
    tree = yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text())
    parent = tree
    for key in leaf[:-1]:
        parent = parent[key]
    if value != DELETE:
        parent[leaf[-1]] = copy.deepcopy(LEAF_VALUES[value])
    elif isinstance(parent, list) or leaf[-1] in parent:  # a key not set is not there to delete
        del parent[leaf[-1]]
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    args, schemas = CONFIG_VERBS[stem][verb]
    code = main([args[0], "--config", str(cfg), *(a.format(d=tmp_path) for a in args[1:])])
    captured = capsys.readouterr()
    # the key, or for a list element the list's key and the element's index
    *path, key = leaf
    named = rf"\b{path[-1]}\[{key}\]" if isinstance(key, int) else rf"\b{key}\b"
    _check(code, captured.out, captured.err,
           {tmp_path / name: schema for name, schema in schemas.items()},
           [re.escape(str(cfg)), named])


def test_config_grid_reaches_every_key():
    # every key of the table is set on a shipped config, and the sample
    # run here sets each through a verb that reads it: a key no shipped
    # config reads fails
    table = {(name, key) for name, keys in KEYS.items() for key in keys}
    assert set(KEY_GRID) == table | set(RETIRED)
    run = {KEY_OF[case] for case in CONFIG_CASES if case in KEY_OF and _sets_what_it_reads(case)}
    assert run == set(KEY_GRID)
    assert set(SHIPPED_GRID) <= set(KEY_OF)


def test_config_grid_covers_every_shipped_config():
    # a new shipped config must say which verbs read it
    assert sorted(CONFIG_VERBS) == sorted(p.stem for p in CONFIGS.glob("*.yaml"))
    assert len({case[0] for case in CONFIG_CASES}) == len(CONFIG_VERBS)

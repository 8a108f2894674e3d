"""Pins every ``repro`` verb's options: dest, default, choices and type.

The table is a literal, so a refactor of the parser that changes what a
script can pass, or what it gets when it passes nothing, fails here.
The top-level ``--log-level``/``--log-format`` defaults come from the
environment and are covered in test_cli.py.
"""

import argparse

from repro.cli import build_parser

TECH = ("nopm", "baseline", "dma-ta", "pl", "dma-ta-pl")
ENG = ("fluid", "precise", "precise-scalar")
KINDS = ("drift-diurnal", "flash-crowd", "kv-store", "ml-inference",
         "oltp-db", "oltp-st", "synthetic-db", "synthetic-st",
         "video-stream")

PARSER_PINS = {
    "generate": {
        "kind": (None, KINDS, None),
        "output": (None, None, None),
        "duration_ms": (25.0, None, "float"),
        "seed": (1, None, "int"),
    },
    "replay": {
        "csv": (None, None, None),
        "dialect": ("msr", ("msr", "cloudphysics"), None),
        "technique": (None, TECH, None),
        "engine": ("fluid", ENG, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
        "page_layout": ("modulo", ("modulo", "hash"), None),
        "num_pages": (None, None, "int"),
        "window": (None, None, None),
        "time_compression": (1.0, None, "float"),
        "proc_per_io": (0.0, None, "float"),
        "output": (None, None, None),
    },
    "characterize": {
        "trace": (None, None, None),
        "cdf": (False, None, None),
    },
    "simulate": {
        "trace": (None, None, None),
        "technique": ("baseline", TECH, None),
        "engine": ("fluid", ENG, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
    },
    "compare": {
        "trace": (None, None, None),
        "cp_limit": (0.1, None, "float"),
    },
    "sweep": {
        "trace": (None, None, None),
        "technique": ("dma-ta-pl", ("dma-ta", "dma-ta-pl"), None),
        "cp_limits": ("0.02,0.05,0.1,0.2,0.3", None, None),
        "jobs": (1, None, "int"),
        "cache": (False, None, None),
        "cache_dir": (None, None, None),
        "fleet": (None, None, None),
        "watch": (False, None, None),
        "serve_port": (8766, None, "int"),
        "host": ("127.0.0.1", None, None),
        "port_file": (None, None, None),
        "no_browser": (False, None, None),
        "linger_s": (0.0, None, "float"),
        "refresh_ms": (1000, None, "int"),
        "fleet_trace_out": (None, None, None),
        "fleet_report_out": (None, None, None),
        "stall_timeout": (None, None, "float"),
        "inject_stall": (None, None, None),
        "inject_stall_s": (5.0, None, "float"),
    },
    "trace": {
        "trace": (None, None, None),
        "technique": ("dma-ta-pl", TECH, None),
        "engine": ("fluid", ENG, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
        "out": (None, None, None),
    },
    "audit": {
        "trace": (None, None, None),
        "technique": ("dma-ta", TECH, None),
        "engine": ("fluid", ENG, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
        "strict": (False, None, None),
        "slowest": (8, None, "int"),
        "inject_undercharge": (0.0, None, "float"),
        "out": (None, None, None),
        "trace_out": (None, None, None),
    },
    "stats": {
        "trace": (None, None, None),
        "technique": ("dma-ta-pl", TECH, None),
        "engine": ("fluid", ENG, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
        "histogram": (None, None, None),
    },
    "watch": {
        "trace": (None, None, None),
        "technique": ("dma-ta-pl", TECH, None),
        "engine": ("fluid", ENG, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
        "sample_cycles": (None, None, "float"),
        "capacity": (2048, None, "int"),
        "serve_port": (8765, None, "int"),
        "host": ("127.0.0.1", None, None),
        "no_browser": (False, None, None),
        "port_file": (None, None, None),
        "linger_s": (10.0, None, "float"),
        "refresh_ms": (1000, None, "int"),
        "telemetry_out": (None, None, None),
        "inject_spike": (0.0, None, "float"),
        "inject_spike_at": (0.5, None, "float"),
    },
    "diff": {
        "trace": (None, None, None),
        "technique": ("dma-ta", TECH, None),
        "engine": ("fluid", ENG, None),
        "engines": (None, None, None),
        "cp_limit": (None, None, "float"),
        "mu": (None, None, "float"),
        "seed": (0, None, "int"),
        "technique_b": (None, TECH, None),
        "cp_limit_b": (None, None, "float"),
        "mu_b": (None, None, "float"),
        "seed_b": (None, None, "int"),
        "epoch_cycles": (None, None, "float"),
        "capacity": (4096, None, "int"),
        "against": (None, None, None),
        "save": (None, None, None),
        "inject_epoch_skew": (None, None, "int"),
        "skew_cycles": (1.0, None, "float"),
        "no_causes": (False, None, None),
        "trace_out": (None, None, None),
        "json_out": (None, None, None),
        "serve": (False, None, None),
        "serve_port": (0, None, "int"),
        "host": ("127.0.0.1", None, None),
        "port_file": (None, None, None),
        "linger_s": (10.0, None, "float"),
    },
    "calibrate": {
        "trace": (None, None, None),
        "cp_limit": (0.1, None, "float"),
    },
    "report": {
        "trace": (None, None, None),
        "cp_limits": ("0.02,0.05,0.1,0.2,0.3", None, None),
        "output": (None, None, None),
    },
    "bench run": {
        "quick": (False, None, None),
        "bench_ms": (None, None, "float"),
        "figure": (None, None, None),
        "jobs": (None, None, "int"),
        "cache": (False, None, None),
        "benchmarks_dir": ("benchmarks", None, None),
    },
    "bench compare": {
        "results_dir": ("benchmarks/results", None, None),
        "root": (".", None, None),
        "fail_on_regression": (False, None, None),
        "wall_tolerance": (None, None, "float"),
        "verbose": (False, None, None),
    },
    "bench update-baseline": {
        "results_dir": ("benchmarks/results", None, None),
        "root": (".", None, None),
        "figure": (None, None, None),
    },
    "bench report": {
        "results_dir": ("benchmarks/results", None, None),
        "root": (".", None, None),
        "out": ("bench_report.html", None, None),
        "title": ("repro bench report", None, None),
        "no_current": (False, None, None),
    },
    "bench explain": {
        "figure": (None, None, None),
        "metric": (None, None, None),
        "results_dir": ("benchmarks/results", None, None),
        "root": (".", None, None),
        "no_write": (False, None, None),
    },
}


def parser_table(parser, prefix=()):
    """verb -> {dest: (default, choices, type name)} for every verb
    (nested verbs such as ``bench run`` are joined by a space)."""
    table = {}
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(parser_table(sub, (*prefix, name)))
        elif not isinstance(action, argparse._HelpAction):
            options.append(action)
    if prefix and options:
        table[" ".join(prefix)] = {
            action.dest: (
                action.default,
                None if action.choices is None else tuple(action.choices),
                getattr(action.type, "__name__", action.type))
            for action in options}
    return table


def test_every_verb_keeps_its_options():
    table = parser_table(build_parser())
    assert sorted(table) == sorted(PARSER_PINS)
    for verb, options in PARSER_PINS.items():
        # repr, so that 10 no longer equals 10.0 and 0 no longer False
        have = {dest: repr(pin) for dest, pin in table[verb].items()}
        assert have == {dest: repr(pin) for dest, pin in options.items()}, \
            verb

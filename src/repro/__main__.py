"""CLI: regenerate paper tables/figures.

Usage::

    python -m repro list                     # available experiments
    python -m repro schemes                  # registered memory organizations
    python -m repro fig6                     # one experiment (quick scale)
    python -m repro fig6 --scale paper       # at the paper's 10M modules
    python -m repro fig6 --workers 8         # parallel Monte-Carlo (same output)
    python -m repro fig6 --scheme secded     # restrict to one organization
    python -m repro fig6 --engine fast       # vectorized Monte-Carlo engine
    python -m repro fig7 --workers 8         # parallel perf campaign (same output)
    python -m repro fig7 --cache-dir .cells  # resumable per-cell result cache
    python -m repro fig7 --profile prof.json # + per-pass cProfile dump
    python -m repro fig1b --workers 4 --cache-dir .pb  # Figure 1b playbook grid
    python -m repro playbook list            # named attack scenarios
    python -m repro playbook show many-sided # format + compiled preview
    python -m repro playbook lint            # compile the whole library
    python -m repro playbook run --scenario all --workers 2 --cache-dir .pb
    python -m repro campaign-status .pb      # summarize a campaign store
    python -m repro serve --store-dir .shared --port 7797
    python -m repro fig7 --store-url HOST:7797      # shared networked cache
    python -m repro submit HOST:7797 playbook --watch
    python -m repro campaign-status --remote HOST:7797
    python -m repro all --scale smoke --out record.json  # every artifact, checked

Global options, accepted by the commands whose runner declares them (any
other command rejects them with exit code 2): ``--scale
smoke|quick|paper`` sizes an experiment (or ``all``) as its module's
``SCALES`` declare: the test suite's size, the interactive default
(``quick``), or the record behind EXPERIMENTS.md. ``all`` runs every
experiment once, prints each report and a per-artifact table of wall
seconds and paper claims held, writes that record as JSON to ``--out
PATH``, and exits 1 if any claim fails. ``--workers N`` fans a
campaign (fig1b/fig1c, fig6/fig7/fig10-13, ``playbook run``, ``all``,
``serve``'s job default) across N processes with bit-identical results.
``--scheme NAME`` (a name from ``python -m repro schemes``) restricts
fig1c/fig6/fig7/fig10/fig11/``playbook run`` to one memory
organization (fig6 takes only its x8 schemes, fig10 only its x4
Chipkill ones). ``--engine fast|reference`` selects the Monte-Carlo engine
of fig6/fig10 or the perf engine of fig7/fig11/fig12/fig13; both fast
paths are statistically equivalent to their reference loops, not
bit-identical, and campaign caches / checkpoints never cross engines.
``--cache-dir PATH`` persists one verified JSON result per campaign cell
(fig1b/fig1c, fig6/fig10, perf figures, ``playbook run``, ``all``): a
killed or re-scoped campaign recomputes only the cells it is missing; ``--store-url
HOST:PORT`` shares the cells through a campaign server instead (the two
are mutually exclusive). ``--profile PATH`` (fig7/fig11) additionally
writes a per-pass cProfile breakdown of the fast perf engine as JSON
and prints its summary (:mod:`repro.perf.profiling`). ``campaign-status DIR`` prints
per-campaign completion and failure counts from a store's index
(``--remote HOST:PORT`` asks a running campaign server instead).

Switches (``repro.switches``) — one rule for all five: the explicit flag
or config field > an ``override()`` (tests) > the environment variable
(read once at start-up) > the default:

    REPRO_KERNELS    fast | reference   codec kernels (default fast)
    REPRO_PERF       fast | reference   perf engine (default reference)
    REPRO_FAULTSIM   fast | reference   Monte-Carlo engine (default reference)
    REPRO_SCHEDULER  pool | steal       campaign fan-out (default pool)
    REPRO_WORKERS    N >= 1             campaign workers (default 1)

Distributed serving: ``python -m repro serve --store-dir DIR`` starts
the asyncio campaign server (shared fingerprint-verified result store +
async job API; see ``repro.campaign.server``); ``python -m repro submit
HOST:PORT KIND`` enqueues a server-side campaign job (``playbook`` /
``perf`` / ``faultsim``; the job's worker count goes in ``--params``),
``--watch`` streaming its progress events.
"""

import sys

from repro.core import registry
from repro.experiments.runner import (
    FLAGS,
    check_options,
    experiment_names,
    run_all,
    run_experiment,
)


def _parse_option(argv, flag, parse):
    """Pop ``--flag VALUE`` / ``--flag=VALUE`` from argv; None if absent."""
    value = None
    remaining = []
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == flag:
            if index + 1 >= len(argv):
                raise ValueError(f"{flag} requires a value")
            value = parse(argv[index + 1])
            index += 2
            continue
        if arg.startswith(flag + "="):
            value = parse(arg.split("=", 1)[1])
            index += 1
            continue
        remaining.append(arg)
        index += 1
    return value, remaining


def _parse_global_options(argv):
    """Pop every global option (:data:`FLAGS`) from argv."""
    options = {}
    for option, flag in FLAGS.items():
        options[option], argv = _parse_option(
            argv, flag, int if option == "workers" else str
        )
    if options["workers"] is not None and options["workers"] < 1:
        raise ValueError(f"--workers must be >= 1, got {options['workers']}")
    return options, argv


def _campaign_status(argv) -> int:
    """Summarize a campaign store (local index or a remote server's)."""
    remote, rest = _parse_option(argv, "--remote", str)
    if remote is not None and not rest:
        from repro.campaign import CampaignClient

        with CampaignClient(remote) as client:
            summary = client.status()
        source = f"server {remote}"
    elif remote is None and len(rest) == 1:
        from repro.campaign import summarize_index

        summary = summarize_index(rest[0])
        source = repr(rest[0])
    else:
        print(
            "usage: python -m repro campaign-status CACHE_DIR | --remote HOST:PORT",
            file=sys.stderr,
        )
        return 2
    if not summary:
        print(f"no campaign index found in {source}", file=sys.stderr)
        return 1
    for name, counts in summary.items():
        print(
            f"{name:16} completed {counts['completed']:6}  "
            f"cells {counts['cells']:6}  index entries {counts['entries']:6}  "
            f"failures {counts.get('failures', 0):6}"
        )
    return 0


def _serve(argv, workers=None) -> int:
    """``python -m repro serve``: the asyncio campaign server; the global
    ``--workers`` is the default worker count for submitted jobs."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a shared campaign result store + job API "
        "(the global --workers N sets submitted jobs' default worker count).",
    )
    parser.add_argument(
        "--store-dir",
        default=".campaign-store",
        help="directory backing the shared result store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    from repro.campaign.wire import DEFAULT_PORT

    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    args = parser.parse_args(argv)
    from repro.campaign.server import run_server

    run_server(args.store_dir, host=args.host, port=args.port, workers=workers)
    return 0


def _submit(argv) -> int:
    """``python -m repro submit``: enqueue a job on a campaign server."""
    import argparse
    import json

    from repro.campaign.server import JOB_KINDS

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a campaign job to a running server.",
    )
    parser.add_argument("url", help="server address, HOST:PORT")
    parser.add_argument("kind", choices=sorted(JOB_KINDS))
    parser.add_argument(
        "--params",
        default="{}",
        help='job parameters as JSON, e.g. \'{"schemes": ["secded"]}\'',
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="stream progress events and wait for the job to finish",
    )
    args = parser.parse_args(argv)
    try:
        params = json.loads(args.params)
    except ValueError as error:
        print(f"--params is not valid JSON: {error}", file=sys.stderr)
        return 2
    from repro.campaign import CampaignClient

    with CampaignClient(args.url) as client:
        job_id = client.submit(args.kind, params)
        print(f"submitted {job_id} ({args.kind}) to {args.url}")
        if not args.watch:
            return 0
        state = "running"
        for event in client.watch(job_id):
            if event.get("event") == "progress":
                print(f"  {event.get('describe', '')}", file=sys.stderr)
            elif event.get("event") == "end":
                state = event.get("state", "done")
                if event.get("error"):
                    print(f"{job_id} failed: {event['error']}", file=sys.stderr)
        if state != "done":
            return 1
        print(json.dumps(client.job_results(job_id), indent=2, sort_keys=True))
    return 0


def _playbook(argv, workers=None, scheme=None, cache_dir=None,
              store_url=None) -> int:
    """``python -m repro playbook``: the declarative attack-playbook engine.

    Global options (``--workers`` / ``--scheme`` / ``--cache-dir`` /
    ``--store-url``) arrive pre-parsed from :func:`main`, checked against
    this signature like the figure experiments' runners.
    """
    import argparse
    import json

    from repro.rowhammer import playbook as pb
    from repro.rowhammer.attacks import compile_playbook, expand_spec

    parser = argparse.ArgumentParser(
        prog="python -m repro playbook",
        description="Compile and run declarative Row-Hammer attack playbooks.",
    )
    parser.add_argument(
        "action", choices=("run", "list", "show", "lint"),
        help="run the campaign grid, list/show library scenarios, or "
        "lint-compile the whole library",
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        help="scenario name (for 'show')",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable; 'all' or omitted = whole library)",
    )
    parser.add_argument(
        "--mitigation", action="append", default=None, metavar="NAME",
        help="mitigation to run against (repeatable; default: all)",
    )
    parser.add_argument(
        "--seeds", default="3",
        help="comma-separated point seeds (default: 3)",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="activation budget per refresh window (default: "
        f"{pb.PlaybookConfig().budget})",
    )
    parser.add_argument(
        "--file", action="append", default=[], metavar="PATH",
        help="JSON file with one playbook dict (or a list of them) to add "
        "to the run (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.action == "list":
        for spec in pb.SCENARIOS.values():
            variants = len(expand_spec(spec))
            suffix = f" ({variants} variants)" if variants > 1 else ""
            print(f"{spec.name:24} {spec.summary}{suffix}")
        return 0
    if args.action == "show":
        if not args.target:
            print("usage: python -m repro playbook show NAME", file=sys.stderr)
            return 2
        spec = pb.scenario(args.target)
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        config = pb.PlaybookConfig()
        for variant in expand_spec(spec):
            pattern = compile_playbook(
                variant, base_row=config.victim_row, n_rows=config.n_rows
            )
            head = list(pattern.activations(24))
            print(
                f"{variant.name}: aggressors {tuple(pattern.aggressors)} "
                f"victims {tuple(pattern.intended_victims)}\n"
                f"  first activations: {head}"
            )
        return 0
    if args.action == "lint":
        for line in pb.lint_scenarios():
            print(line)
        print(f"{len(pb.SCENARIOS)} scenarios OK")
        return 0

    # action == "run"
    extra_playbooks = []
    for path in args.file:
        with open(path) as handle:
            payload = json.load(handle)
        extra_playbooks.extend(payload if isinstance(payload, list) else [payload])
    config = pb.PlaybookConfig()
    if args.budget is not None:
        config.budget = args.budget
    scenarios = args.scenario
    if scenarios is None or "all" in scenarios:
        scenarios = None  # whole library + every --file playbook
    seeds = tuple(int(seed) for seed in args.seeds.split(",") if seed)
    cells = pb.plan_playbook(
        scenarios=scenarios,
        mitigations=tuple(args.mitigation) if args.mitigation
        else pb.DEFAULT_MITIGATIONS,
        schemes=(scheme,) if scheme else None,
        seeds=seeds,
        config=config,
        extra_playbooks=extra_playbooks,
    )
    from repro.experiments.runner import _open_store, _print_progress

    progress = _print_progress if workers and workers > 1 else None
    with _open_store(store_url) as store:
        outcomes = pb.run_playbook(
            cells,
            config,
            workers=workers,
            cache_dir=cache_dir,
            store=store,
            progress=progress,
            extra_playbooks=extra_playbooks,
        )
    pb.report_playbook(outcomes)
    return 0


def _print_schemes(argv) -> int:
    """The registry listing: name, capability flags, description."""
    for info in registry.schemes():
        flags = ",".join(info.capabilities) or "-"
        print(f"{info.name:28} {flags:36} {info.display}: {info.summary}")
    return 0


def _list(argv) -> int:
    for experiment in experiment_names():
        print(experiment)
    return 0


def _all(argv, scale=None, out=None, workers=None, cache_dir=None) -> int:
    """``python -m repro all``: every experiment at one scale; exit 1 if
    a paper claim fails."""
    options = dict(scale=scale, out=out, workers=workers, cache_dir=cache_dir)
    failed = run_all(**{name: value for name, value in options.items() if value is not None})
    return 1 if failed else 0


#: Commands other than the experiments; each takes its own arguments plus
#: the global options its signature declares.
COMMANDS = {
    "list": _list,
    "schemes": _print_schemes,
    "playbook": _playbook,
    "serve": _serve,
    "submit": _submit,
    "campaign-status": _campaign_status,
    "all": _all,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        options, argv = _parse_global_options(argv)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(__doc__)
        print("Experiments:", ", ".join(experiment_names()))
        print("Schemes:", ", ".join(registry.names()))
        return 0
    name = argv[0]
    command = COMMANDS.get(name)
    try:
        if command is None:
            run_experiment(name, **options)
            return 0
        return command(argv[1:], **check_options(f"command {name!r}", command, options))
    except (KeyError, OSError, ValueError) as error:
        keyed = isinstance(error, KeyError) and error.args
        print(error.args[0] if keyed else error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

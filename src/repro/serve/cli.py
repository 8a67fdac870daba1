"""``repro-serve`` — run and talk to a decomposition job server.

Subcommands::

    repro-serve serve --socket PATH [--workers N] [--queue-depth D]
                      [--no-batching] [--batch-limit B] [--start-method M]
    repro-serve submit --socket PATH (--ref FILE | --random I,J,K)
                       --rank R [--seed S] [--priority P] [--timeout T]
                       [--n-iter-max N] [--tol F] [--threads T]
                       [--wait] [--save FILE]
    repro-serve status --socket PATH JOB_ID
    repro-serve cancel --socket PATH JOB_ID [--reason TEXT]
    repro-serve stats --socket PATH
    repro-serve shutdown --socket PATH [--no-drain]

``serve`` runs in the foreground until a ``shutdown`` request arrives
(or Ctrl-C).  Everything else is a one-shot client round-trip over the
JSON-lines unix-socket protocol (:mod:`repro.serve.api`).  ``submit``
ships either a ``repro.io`` file ref (recommended — the worker loads
it, nothing big crosses the socket) or a small seeded random tensor for
smoke tests.  Also reachable as ``python -m repro.serve``.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Async multi-tenant CP-ALS decomposition service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_socket(p: argparse.ArgumentParser) -> None:
        p.add_argument("--socket", required=True,
                       help="unix socket path the server listens on")

    p_serve = sub.add_parser("serve", help="run a job server (foreground)")
    add_socket(p_serve)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--queue-depth", type=int, default=64)
    p_serve.add_argument("--no-batching", action="store_true",
                         help="disable the coalescing scheduler")
    p_serve.add_argument("--batch-limit", type=int, default=16)
    p_serve.add_argument("--start-method", default=None,
                         help="multiprocessing start method for workers")

    p_submit = sub.add_parser("submit", help="submit one job")
    add_socket(p_submit)
    src = p_submit.add_mutually_exclusive_group(required=True)
    src.add_argument("--ref", help="path to an .npz from repro.io.save_tensor")
    src.add_argument("--random", metavar="I,J,K",
                     help="seeded random tensor of this shape (smoke tests)")
    p_submit.add_argument("--rank", type=int, required=True)
    p_submit.add_argument("--seed", type=int, default=None)
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument("--timeout", type=float, default=None)
    p_submit.add_argument("--n-iter-max", type=int, default=50)
    p_submit.add_argument("--tol", type=float, default=1e-8)
    p_submit.add_argument("--threads", type=int, default=None)
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the result and print a summary")
    p_submit.add_argument("--save", default=None,
                          help="with --wait: save the fitted model "
                               "(repro.io.save_model) to this .npz")

    p_status = sub.add_parser("status", help="one job's status snapshot")
    add_socket(p_status)
    p_status.add_argument("job_id")

    p_cancel = sub.add_parser("cancel", help="cancel a queued/running job")
    add_socket(p_cancel)
    p_cancel.add_argument("job_id")
    p_cancel.add_argument("--reason", default="cancelled")

    p_stats = sub.add_parser("stats", help="service metrics snapshot")
    add_socket(p_stats)

    p_shutdown = sub.add_parser("shutdown", help="stop a running server")
    add_socket(p_shutdown)
    p_shutdown.add_argument("--no-drain", action="store_true",
                            help="drop queued jobs instead of draining")

    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.api import serve_unix
    from repro.serve.server import JobServer, ServeConfig

    config = ServeConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        batching=not args.no_batching,
        batch_limit=args.batch_limit,
        start_method=args.start_method,
    )
    server = JobServer(config)
    print(f"repro-serve: {args.workers} workers on {args.socket}",
          file=sys.stderr)
    try:
        asyncio.run(serve_unix(server, args.socket))
    except KeyboardInterrupt:
        server.shutdown(drain=False, timeout=5.0)
    return 0


def _roundtrip(args: argparse.Namespace, payload: dict) -> dict:
    from repro.serve.api import request

    reply = request(args.socket, payload)
    if not reply.get("ok"):
        print(f"error [{reply.get('error')}]: {reply.get('message')}",
              file=sys.stderr)
        raise SystemExit(2)
    return reply


def _cmd_submit(args: argparse.Namespace) -> int:
    spec: dict = {
        "rank": args.rank,
        "seed": args.seed,
        "priority": args.priority,
        "timeout": args.timeout,
        "n_iter_max": args.n_iter_max,
        "tol": args.tol,
        "num_threads": args.threads,
    }
    if args.ref is not None:
        spec["tensor_ref"] = args.ref
    else:
        import numpy as np

        shape = tuple(int(s) for s in args.random.split(","))
        rng = np.random.default_rng(args.seed or 0)
        spec["tensor"] = rng.standard_normal(shape).tolist()
    reply = _roundtrip(args, {"op": "submit", "spec": spec})
    job_id = reply["job_id"]
    print(job_id)
    if not args.wait:
        return 0
    reply = _roundtrip(args, {"op": "result", "job_id": job_id})
    result = reply["result"]
    print(json.dumps({k: result[k] for k in
                      ("job_id", "fit", "iterations", "converged",
                       "batched", "group_size", "wait_seconds",
                       "run_seconds")}, indent=2))
    if args.save:
        import numpy as np

        from repro.cpd.kruskal import KruskalTensor
        from repro.io import save_model

        model = KruskalTensor(
            [np.asarray(f) for f in result["factors"]],
            np.asarray(result["weights"]),
        )
        save_model(args.save, model)
        print(f"model saved to {args.save}", file=sys.stderr)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    reply = _roundtrip(args, {"op": "status", "job_id": args.job_id})
    print(json.dumps(reply["status"], indent=2))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    reply = _roundtrip(args, {"op": "cancel", "job_id": args.job_id,
                              "reason": args.reason})
    print("cancelled" if reply["cancelled"] else "not cancellable")
    return 0 if reply["cancelled"] else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    reply = _roundtrip(args, {"op": "stats"})
    print(json.dumps(reply["stats"], indent=2))
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    _roundtrip(args, {"op": "shutdown", "drain": not args.no_drain})
    print("shutdown requested")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "cancel": _cmd_cancel,
        "stats": _cmd_stats,
        "shutdown": _cmd_shutdown,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

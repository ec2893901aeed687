"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the full pipeline so the library is usable without writing
code:

* ``generate``  — write a synthetic profile database to .npz/.csv
* ``stats``     — print Table-I style statistics of a database
* ``simplify``  — simplify a database with RL4QDTS or any named baseline
* ``evaluate``  — score a simplified database against its original on the
  five query tasks
* ``baselines`` — list the 25 baseline names
* ``encode``    — pack a database into the delta-varint binary codec
* ``decode``    — unpack a codec blob back into .npz/.csv/.geojson
* ``workload``  — generate a range-query workload and save it as JSON
* ``serve``     — run the sharded query service over a JSONL request file
  (range / count / histogram / kNN / similarity requests plus streaming
  ``ingest`` of additional database files), printing responses and
  latency/cache statistics — or, with ``--listen HOST:PORT``, as an
  asyncio TCP server speaking the length-prefixed JSON frame protocol
* ``query``     — one-shot sharded query against a database
* ``client``    — one-shot query against a running ``serve --listen``
  server through :class:`repro.client.RemoteClient`

Example::

    python -m repro generate --profile chengdu -n 100 --out db.npz
    python -m repro simplify --db db.npz --ratio 0.05 --method RL4QDTS \
        --out small.npz
    python -m repro evaluate --original db.npz --simplified small.npz
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines import all_baselines, get_baseline, simplify_database
from repro.core import RL4QDTS, RL4QDTSConfig
from repro.data import (
    dataset_statistics,
    load_database,
    save_database,
    synthetic_database,
)
from repro.eval import ALL_TASKS, QueryAccuracyEvaluator, QuerySuiteConfig


def _cmd_generate(args: argparse.Namespace) -> int:
    db = synthetic_database(
        args.profile,
        n_trajectories=args.n_trajectories,
        points_scale=args.points_scale,
        seed=args.seed,
    )
    save_database(db, args.out)
    print(f"wrote {db} to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    for key, value in dataset_statistics(db).as_row().items():
        print(f"{key:<26}{value}")
    return 0


def _cmd_baselines(_args: argparse.Namespace) -> int:
    for spec in all_baselines():
        print(spec.name)
    return 0


def _cmd_simplify(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    if args.method == "RL4QDTS":
        if args.model:
            model = RL4QDTS.load(args.model)
        else:
            print("training RL4QDTS (pass --model to reuse a trained one)...")
            model = RL4QDTS.train(
                db,
                config=RL4QDTSConfig(
                    train_budget_ratio=args.ratio, seed=args.seed
                ),
            )
            if args.save_model:
                model.save(args.save_model)
                print(f"saved trained model to {args.save_model}")
        simplified = model.simplify(db, budget_ratio=args.ratio, seed=args.seed)
    else:
        spec = get_baseline(args.method)
        simplified = simplify_database(db, args.ratio, spec)
    save_database(simplified, args.out)
    print(
        f"{db.total_points} -> {simplified.total_points} points "
        f"({simplified.total_points / db.total_points:.2%}); wrote {args.out}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    original = load_database(args.original)
    simplified = load_database(args.simplified)
    evaluator = QueryAccuracyEvaluator(
        original,
        QuerySuiteConfig(
            n_range_queries=args.n_queries,
            clustering_subset=min(20, len(original)),
            seed=args.seed,
        ),
    )
    tasks = tuple(args.tasks) if args.tasks else ALL_TASKS
    scores = evaluator.evaluate(simplified, tasks)
    for task, value in scores.items():
        print(f"{task:<12}F1 = {value:.4f}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.data import CodecConfig, encode_database, storage_report

    db = load_database(args.db)
    config = CodecConfig(quantum_xy=args.quantum_xy, quantum_t=args.quantum_t)
    Path(args.out).write_bytes(encode_database(db, config))
    report = storage_report(db, config)
    print(
        f"{report.n_points} points: {report.raw_bytes} raw bytes -> "
        f"{report.encoded_bytes} encoded ({report.bytes_per_point:.2f} "
        f"bytes/point, {report.compression_factor:.1f}x)"
    )
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.data import decode_database

    db = decode_database(Path(args.blob).read_bytes())
    save_database(db, args.out)
    print(f"decoded {db} to {args.out}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import RangeQueryWorkload

    db = load_database(args.db)
    kwargs = {}
    if args.distribution == "gaussian":
        kwargs = {"mu": args.mu, "sigma": args.sigma}
    elif args.distribution == "zipf":
        kwargs = {"a": args.zipf_a}
    workload = RangeQueryWorkload.generate(
        args.distribution, db, args.n_queries, seed=args.seed, **kwargs
    )
    workload.save(args.out)
    print(f"wrote {len(workload)} {args.distribution} queries to {args.out}")
    return 0


def _request_boxes(req: dict):
    """Boxes of a JSONL range/count request: inline bounds or a workload file."""
    from repro.data.bbox import BoundingBox
    from repro.workloads import RangeQueryWorkload

    if "workload" in req:
        return RangeQueryWorkload.load(req["workload"]).boxes
    return [BoundingBox(*bounds) for bounds in req["boxes"]]


def _serve_request(client, req: dict, lookup) -> dict:
    """Execute one JSONL request through a Client; JSON-safe response.

    ``client`` is any :class:`repro.client.Client` (the sharded service for
    ``repro serve``/``repro query``, a socket client for ``repro client``);
    ``lookup(i)`` resolves a query-trajectory id for knn/similarity ops.
    """
    op = req["op"]
    if op == "range":
        response = client.range(_request_boxes(req))
        body = {"results": [sorted(s) for s in response.result_sets]}
    elif op == "count":
        response = client.count(_request_boxes(req))
        body = {"counts": response.counts.tolist()}
    elif op == "histogram":
        response = client.histogram(
            grid=int(req.get("grid", 32)), normalize=bool(req.get("normalize", False))
        )
        body = {
            "histogram": response.histogram.tolist(),
            "total": float(response.histogram.sum()),
        }
    elif op == "knn":
        queries = [lookup(int(i)) for i in req["ids"]]
        response = client.knn(
            queries, int(req.get("k", 3)), eps=float(req.get("eps", 2000.0))
        )
        body = {"neighbors": response.neighbors}
    elif op == "similarity":
        queries = [lookup(int(i)) for i in req["ids"]]
        response = client.similarity(queries, float(req["delta"]))
        body = {"results": [sorted(s) for s in response.result_sets]}
    elif op == "ingest":
        result = client.ingest(list(load_database(req["db"])))
        return {"op": op, "added": result.added, "epoch": result.epoch}
    else:
        raise ValueError(f"unknown request op {op!r}")
    return {
        "op": op,
        "epoch": response.epoch,
        "cached": response.cached,
        "latency_ms": round(1000.0 * response.latency_s, 3),
        **body,
    }


def _make_service(args):
    from repro.service import QueryService, make_compaction

    db = load_database(args.db)
    compaction = make_compaction(
        getattr(args, "compaction", "exact"),
        error_budget=getattr(args, "error_budget", None),
        model=getattr(args, "compaction_model", None),
    )
    watchdog_interval = getattr(args, "watchdog_interval", 0.0) or 0.0
    return QueryService(
        db,
        n_shards=args.shards,
        executor=args.executor,
        index=args.index,
        store=args.store,
        compaction=compaction,
        replicas=getattr(args, "replicas", 1),
        watchdog_interval=watchdog_interval if watchdog_interval > 0 else None,
        watchdog_deadline=getattr(args, "watchdog_deadline", 5.0),
    )


def _parse_hostport(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _serve_listen(args, service) -> int:
    """The asyncio socket front-end of ``repro serve --listen``."""
    import asyncio
    import json
    import signal

    from repro.service.server import QueryServer

    host, port = _parse_hostport(args.listen)
    interval = float(getattr(args, "metrics_interval", 0.0) or 0.0)
    metrics_out = getattr(args, "metrics_out", None)

    async def _metrics_logger(server: QueryServer) -> None:
        """Append one metrics-snapshot JSON line every ``interval`` seconds."""
        sink = open(metrics_out, "a") if metrics_out else None
        try:
            while True:
                await asyncio.sleep(interval)
                report = await server.metrics_snapshot()
                line = json.dumps(report, sort_keys=True)
                if sink is not None:
                    sink.write(line + "\n")
                    sink.flush()
                else:
                    print(line, flush=True)
        finally:
            if sink is not None:
                sink.close()

    async def _run() -> None:
        server = QueryServer(
            service,
            host,
            port,
            workers=getattr(args, "workers", None),
            max_inflight=getattr(args, "max_inflight", None),
            auth_token=getattr(args, "auth_token", None),
        )
        await server.start()
        # SIGTERM takes SIGINT's path — cancel this task, so the finally
        # below and _cmd_serve's service.close() stop the shard workers and
        # unlink their shm segments instead of orphaning them.
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel
            )
        except NotImplementedError:  # no signal handlers on this platform
            pass
        # The parseable "listening on" line is the startup contract scripts
        # and tests wait for (port 0 resolves to an OS-assigned port).
        print(f"listening on {server.host}:{server.port}", flush=True)
        logger = (
            asyncio.create_task(_metrics_logger(server)) if interval > 0 else None
        )
        try:
            await server.serve_forever()
        finally:
            if logger is not None:
                logger.cancel()
                try:
                    await logger
                except asyncio.CancelledError:
                    pass
            await server.stop()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.client import ServiceClient

    service = _make_service(args)
    client = ServiceClient(service)
    try:
        info = service.describe()
        compaction = info.get("compaction", {"policy": "exact"})
        budget = compaction.get("error_budget")
        print(
            f"serving {info['trajectories']} trajectories / {info['points']} "
            f"points across {info['n_shards']} shards "
            f"({info['executor']} executor, "
            f"{info['index']} index, {info['store']} store, "
            f"{compaction['policy']} compaction"
            + (f", error budget {budget}" if budget is not None else "")
            + (
                f", {info['replicas']} replicas/shard"
                if info.get("replicas", 1) != 1
                else ""
            )
            + ")"
        )
        failures = 0
        if args.listen:
            _serve_listen(args, service)
        elif args.requests:
            # Responses stream out as they are produced, and a failing
            # request yields an error response line instead of discarding
            # the work already done on earlier lines.
            sink = open(args.out, "w") if args.out else None
            n_responses = 0
            try:
                for line in Path(args.requests).read_text().splitlines():
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        response = _serve_request(
                            client, json.loads(line), service.manager.trajectory
                        )
                    except Exception as exc:
                        failures += 1
                        response = {
                            "error": f"{type(exc).__name__}: {exc}",
                            "request": line,
                        }
                    text = json.dumps(response)
                    n_responses += 1
                    if sink is not None:
                        sink.write(text + "\n")
                        sink.flush()
                    else:
                        print(text)
            finally:
                if sink is not None:
                    sink.close()
            if args.out:
                print(f"wrote {n_responses} responses to {args.out}")
        if args.stats:
            for key, value in service.stats.summary().items():
                shown = f"{value:.3f}" if isinstance(value, float) else value
                print(f"{key:<28}{shown}")
    finally:
        service.close()
    return 1 if failures else 0


def _query_request(args: argparse.Namespace) -> dict:
    """The JSONL request dict of a one-shot ``query``/``client`` call."""
    req: dict = {"op": args.type}
    if args.type in ("range", "count"):
        if not args.workload:
            raise SystemExit("--workload is required for range/count queries")
        req["workload"] = args.workload
    elif args.type == "histogram":
        req.update(grid=args.grid, normalize=args.normalize)
    elif args.type in ("knn", "similarity"):
        if not args.ids:
            raise SystemExit("--ids is required for knn/similarity queries")
        req["ids"] = args.ids
        if args.type == "knn":
            req.update(k=args.k, eps=args.eps)
        else:
            if args.delta is None:
                raise SystemExit("--delta is required for similarity queries")
            req["delta"] = args.delta
    return req


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.client import ServiceClient

    req = _query_request(args)

    service = _make_service(args)
    try:
        try:
            print(
                json.dumps(
                    _serve_request(
                        ServiceClient(service), req, service.manager.trajectory
                    )
                )
            )
        except Exception as exc:
            # Same contract as `serve`: failures become a JSON error line
            # and a nonzero exit, not a raw traceback.
            print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            return 1
    finally:
        service.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """One-shot query against a running ``repro serve --listen`` server."""
    import json

    from repro.client import RemoteClient

    req = _query_request(args)
    lookup = None
    if args.type in ("knn", "similarity"):
        if not args.query_db:
            raise SystemExit(
                "--query-db is required for knn/similarity queries: query "
                "trajectories travel with the request, so --ids index into "
                "this local database file"
            )
        lookup = load_database(args.query_db).__getitem__
    elif args.type == "ingest":
        if not args.ingest:
            raise SystemExit("--ingest is required for the ingest op")
        req["db"] = args.ingest
    host, port = _parse_hostport(args.connect)
    client = RemoteClient(
        host, port, timeout=args.timeout, auth_token=args.auth_token
    )
    try:
        if args.type == "describe":
            print(json.dumps(client.describe()))
            return 0
        if args.type == "metrics":
            print(json.dumps(client.metrics(), sort_keys=True))
            return 0
        try:
            print(json.dumps(_serve_request(client, req, lookup)))
        except Exception as exc:
            print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            return 1
    finally:
        client.close()
    return 0


def _add_service_arguments(p: argparse.ArgumentParser) -> None:
    from repro.data.store import STORES
    from repro.service import COMPACTION_POLICIES, EXECUTORS

    p.add_argument("--db", required=True, help="database to serve (.npz/.csv)")
    p.add_argument("--shards", type=int, default=4, help="number of shards K")
    p.add_argument("--executor", default="serial", choices=list(EXECUTORS),
                   help='"process" fans out to one worker process per shard')
    p.add_argument("--index", default="grid", choices=["grid"],
                   help="per-shard candidate index; the grid CSR cell sweep "
                   "is the only one")
    p.add_argument("--store", default="heap", choices=list(STORES),
                   help='"shm" publishes shard base tiers as named '
                   "shared-memory segments that process-executor workers "
                   "map zero-copy instead of unpickling (answers are "
                   "identical either way — this tunes memory layout only)")
    p.add_argument("--compaction", default="exact",
                   choices=list(COMPACTION_POLICIES),
                   help="base-rebuild policy of the shard runtimes: 'exact' "
                   "keeps answers bit-identical; 'uniform'/'greedy'/'rl' "
                   "simplify cold base tiers on every compaction (answers "
                   "become approximate within --error-budget)")
    p.add_argument("--error-budget", type=float, default=None,
                   help="per-trajectory error bound (SED) each simplifying "
                   "compaction pass must respect; omit to accept the "
                   "simplifier's ratio-driven proposal as-is")
    p.add_argument("--compaction-model",
                   help="trained RL4QDTS model (.npz) to load for "
                   "--compaction rl (omit for an untrained policy)")
    p.add_argument("--replicas", type=int, default=1,
                   help="worker processes per shard (process executor): "
                   "queries fail over to a live sibling when a worker "
                   "dies; ingest replicates to all (answers are identical "
                   "either way — this buys fault tolerance)")
    p.add_argument("--watchdog-interval", type=float, default=0.0,
                   help="seconds between watchdog liveness polls that "
                   "restart dead/hung shard replicas (0 disables)")
    p.add_argument("--watchdog-deadline", type=float, default=5.0,
                   help="seconds a replica heartbeat may take before the "
                   "watchdog declares it hung and restarts it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query-accuracy-driven trajectory database simplification "
        "(RL4QDTS, ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic database")
    p.add_argument("--profile", default="geolife",
                   choices=["geolife", "tdrive", "chengdu", "osm"])
    p.add_argument("-n", "--n-trajectories", type=int, default=100)
    p.add_argument("--points-scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help=".npz or .csv path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("baselines", help="list the 25 baseline names")
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser("simplify", help="simplify a database")
    p.add_argument("--db", required=True)
    p.add_argument("--ratio", type=float, required=True,
                   help="compression ratio r in (0, 1]")
    p.add_argument("--method", default="RL4QDTS",
                   help='"RL4QDTS" or a baseline name, e.g. "Bottom-Up(E,SED)"')
    p.add_argument("--model", help="load a trained RL4QDTS model (.npz)")
    p.add_argument("--save-model", help="save the trained model here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("evaluate", help="score a simplified database")
    p.add_argument("--original", required=True)
    p.add_argument("--simplified", required=True)
    p.add_argument("--n-queries", type=int, default=100)
    p.add_argument("--tasks", nargs="*", choices=list(ALL_TASKS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("encode", help="pack a database with the binary codec")
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True, help="output blob path")
    p.add_argument("--quantum-xy", type=float, default=0.01,
                   help="spatial resolution (coordinate units)")
    p.add_argument("--quantum-t", type=float, default=0.01,
                   help="temporal resolution (time units)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="unpack a codec blob")
    p.add_argument("--blob", required=True)
    p.add_argument("--out", required=True, help=".npz/.csv/.geojson path")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("workload", help="generate a range-query workload")
    p.add_argument("--db", required=True)
    p.add_argument("--distribution", default="data",
                   choices=["data", "gaussian", "zipf", "real", "uniform"])
    p.add_argument("-n", "--n-queries", type=int, default=100)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.25)
    p.add_argument("--zipf-a", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser(
        "serve",
        help="run the sharded query service over a JSONL request file",
        description="Serve a database through the sharded QueryService. "
        "Each line of --requests is a JSON object: "
        '{"op": "range"|"count", "boxes": [[xmin,xmax,ymin,ymax,tmin,tmax], '
        '...]} or {"op": "range", "workload": "w.json"}; '
        '{"op": "histogram", "grid": 32}; '
        '{"op": "knn", "ids": [0, 1], "k": 3, "eps": 2000.0}; '
        '{"op": "similarity", "ids": [0], "delta": 5.0}; '
        '{"op": "ingest", "db": "more.npz"} streams another database in.',
    )
    _add_service_arguments(p)
    p.add_argument("--requests", help="JSONL request file (one request per line)")
    p.add_argument("--listen", metavar="HOST:PORT",
                   help="run the asyncio socket front-end instead of a JSONL "
                   "file: length-prefixed JSON frames, version handshake, "
                   "concurrent clients (port 0 picks a free port; Ctrl-C "
                   "shuts down gracefully). Query with `repro client` or "
                   "repro.client.RemoteClient.")
    p.add_argument("--out", help="write JSONL responses here instead of stdout")
    p.add_argument("--stats", action="store_true",
                   help="print latency/cache statistics after serving")
    p.add_argument("--metrics-interval", type=float, default=0.0, metavar="N",
                   help="with --listen: emit a JSON metrics snapshot every N "
                   "seconds (counters, latency histograms, cache/skip rates)")
    p.add_argument("--metrics-out",
                   help="append periodic metrics snapshots to this JSONL file "
                   "instead of stdout (requires --metrics-interval)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="with --listen: worker threads executing independent "
                   "requests concurrently (default: cpu count, capped at 8; "
                   "1 restores fully serialized execution). Ingest always "
                   "serializes behind the epoch write lock, so answers are "
                   "identical at any worker count")
    p.add_argument("--max-inflight", type=int, default=None, metavar="N",
                   help="with --listen: bound on admitted-but-unanswered "
                   "frames across all connections (default 4x --workers); "
                   "frames over the bound get a typed 'Overloaded' error "
                   "frame instead of queueing without limit; cache hits "
                   "are answered before admission and never refused")
    p.add_argument("--auth-token",
                   help="with --listen: require this token in every client "
                   "handshake (clients pass --auth-token / auth_token=...)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="one-shot query against a running `repro serve --listen` server",
        description="Connect to a socket server and run one query through "
        "the unified client API. Query trajectories for knn/similarity are "
        "read from --query-db and travel with the request.",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="server address printed by `repro serve --listen`")
    p.add_argument("--type", required=True,
                   choices=["range", "count", "histogram", "knn",
                            "similarity", "ingest", "describe", "metrics"])
    p.add_argument("--workload", help="workload JSON (range/count)")
    p.add_argument("--grid", type=int, default=32, help="histogram resolution")
    p.add_argument("--normalize", action="store_true",
                   help="normalize the histogram to a distribution")
    p.add_argument("--query-db",
                   help="local database file supplying --ids query "
                   "trajectories (knn/similarity)")
    p.add_argument("--ids", type=int, nargs="*",
                   help="query trajectory ids into --query-db (knn/similarity)")
    p.add_argument("-k", "--k", type=int, default=3, help="kNN result size")
    p.add_argument("--eps", type=float, default=2000.0, help="EDR threshold")
    p.add_argument("--delta", type=float, help="similarity distance threshold")
    p.add_argument("--ingest", help="database file to stream in (type=ingest)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="socket timeout in seconds")
    p.add_argument("--auth-token",
                   help="handshake token for servers started with "
                   "`repro serve --listen --auth-token`")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("query", help="one-shot sharded query against a database")
    _add_service_arguments(p)
    p.add_argument("--type", required=True,
                   choices=["range", "count", "histogram", "knn", "similarity"])
    p.add_argument("--workload", help="workload JSON (range/count)")
    p.add_argument("--grid", type=int, default=32, help="histogram resolution")
    p.add_argument("--normalize", action="store_true",
                   help="normalize the histogram to a distribution")
    p.add_argument("--ids", type=int, nargs="*",
                   help="query trajectory ids (knn/similarity)")
    p.add_argument("-k", "--k", type=int, default=3, help="kNN result size")
    p.add_argument("--eps", type=float, default=2000.0, help="EDR threshold")
    p.add_argument("--delta", type=float, help="similarity distance threshold")
    p.set_defaults(func=_cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

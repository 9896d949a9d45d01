"""Layer boundaries of the request path and the tracer that wraps them.

The benchmark never edits the program: it rebinds the public entry points of
each ``repro`` layer from here, so a traced run records one span per boundary
crossing. A span's *self time* is its duration minus the part its child spans
cover, so nested layers (a codec decode inside an RPC delivery inside the
event loop) are charged once each. A layer is charged only at a boundary the
run actually crossed.

``BOUNDARIES`` is the single table of what is wrapped; ``Tracer.metrics``
turns what the spans and counters saw into the per-layer metric names the
benchmark prints.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# (module, attribute path, span key, extra): the attribute path is a
# module-level function ("encode") or a class method ("Network.deliver_next").
# ``extra`` names an additional counter the wrapper records for that boundary.
BOUNDARIES = [
    ("repro.wire.codec", "encode", "wire.encode", "result_bytes"),
    ("repro.wire.codec", "decode", "wire.decode", "arg_bytes"),
    ("repro.net.rpc", "RpcClient.call_with_retry", "net.rpc.sync_call", None),
    ("repro.net.rpc", "RpcClient.call_many", "net.rpc.sync_call", None),
    ("repro.net.rpc", "PendingRpcBatch.collect", "net.rpc.sync_call", None),
    ("repro.net.transport", "Network.deliver_next", "net.transport.deliver", None),
    ("repro.net.transport", "Network.run_until_idle", "net.transport.deliver", None),
    ("repro.net.eventloop", "EventLoop.run", "net.eventloop", None),
    ("repro.net.vsock", "SocketHop.forward", "net.vsock.forward", "arg_bytes"),
    ("repro.sandbox.pysandbox", "PythonSandbox.invoke_many", "sandbox.invoke_many", None),
    ("repro.sandbox.wvm.vm", "WvmInstance.invoke", "sandbox.wvm.invoke", "fuel"),
    ("repro.crypto.secp256k1", "Secp256k1.multiply", "crypto.ec_mul", None),
    ("repro.crypto.secp256k1", "Secp256k1.multiply_cached", "crypto.ec_mul", None),
    ("repro.crypto.secp256k1", "Secp256k1.generator_multiply", "crypto.ec_mul", None),
    ("repro.crypto.secp256k1", "FixedBaseTable.multiply", "crypto.ec_mul", None),
    ("repro.crypto.shamir", "ShamirSecretSharing.split", "crypto.shamir", None),
    ("repro.crypto.shamir", "ShamirSecretSharing.split_many", "crypto.shamir", None),
    ("repro.crypto.shamir", "ShamirSecretSharing.reconstruct", "crypto.shamir", None),
    ("repro.crypto.bls", "bls_sign", "crypto.bls", None),
    ("repro.crypto.bls", "bls_verify", "crypto.bls", None),
    ("repro.crypto.bls", "BlsThresholdScheme.sign_share", "crypto.bls", None),
    ("repro.crypto.bls", "BlsThresholdScheme.verify_share", "crypto.bls", None),
    ("repro.crypto.bls", "BlsThresholdScheme.combine", "crypto.bls", None),
    ("repro.crypto.bls", "BlsThresholdScheme.verify", "crypto.bls", None),
    ("repro.enclave.attestation", "AttestationVerifier.verify", "enclave.attest", None),
    ("repro.enclave.vendor", "VendorRegistry.verify_certificate", "enclave.vendor.verify", None),
    ("repro.core.deployment", "Deployment.__init__", "core.deploy", None),
    ("repro.core.deployment", "Deployment.publish_and_install", "core.deploy", None),
    ("repro.core.deployment", "Deployment.begin_invoke_batch", "core.invoke_batch", None),
    ("repro.core.deployment", "PendingInvokeBatch.collect", "core.invoke_batch", None),
    ("repro.core.framework", "TrustDomainFramework.invoke_application_many",
     "core.framework.invoke_many", None),
    ("repro.service.sharded", "ShardedService.scatter", "service.scatter", None),
    ("repro.service.sharded", "ShardedService.begin_scatter", "service.scatter", None),
    ("repro.service.sharded", "ShardedService.scatter_to_shards", "service.scatter", None),
    ("repro.service.sharded", "ShardedService.begin_scatter_to_shards", "service.scatter", None),
    ("repro.service.ring", "HashRing.shard_for", "service.ring.lookup", None),
    ("repro.service.sharded", "ShardedService.reshard", "service.reshard", "reshard"),
    ("repro.transparency.epochs", "EpochPublisher.publish", "transparency.publish", None),
    ("repro.transparency.auditor", "AuditorService.verify", "transparency.verify", "cost_units"),
    ("repro.apps.keybackup", "KeyBackupClient.backup_keys", "apps.client", None),
    ("repro.apps.keybackup", "KeyBackupClient.recover_keys", "apps.client", None),
    ("repro.apps.odoh", "ObliviousDnsClient.resolve_many", "apps.client", None),
    ("repro.apps.threshold_sign", "CustodyClient.sign_transactions", "apps.client", None),
    ("repro.sim.asyncops", "keybackup_op", "apps.client", "generator"),
    ("repro.sim.workload", "MultiClientWorkload.run", "sim.driver", None),
    ("repro.sim.scenarios.runner", "ScenarioRunner.run", "sim.driver", None),
]

# Counter-only boundaries: too hot or too small for a span of their own, so
# their time stays with the caller's span. The last field names the counting
# wrapper (see ``Tracer.counter``).
COUNTERS = [
    ("repro.crypto.hashes", "sha256", "hash_parts"),
    ("repro.crypto.hashes", "hmac_sha256", "hmac_data"),
    ("repro.net.transport", "NetworkStats.record_send", "send"),
    ("repro.net.rpc", "ServiceQueue.enqueue", "enqueue"),
    ("repro.net.rpc", "RpcClient.__init__", "rpc_client"),
]

# Every per-layer metric, in print order. A metric a workload never touches
# is reported as 0 (that is what the boundary self-check asserts on).
PER_LAYER_METRICS = [
    ("wire.encode.calls", "count"), ("wire.encode.self_ms", "ms"),
    ("wire.encode.bytes", "bytes"), ("wire.decode.calls", "count"),
    ("wire.decode.self_ms", "ms"), ("wire.decode.bytes", "bytes"),
    ("wire.decodes_per_op", "count/op"),
    ("net.messages_per_op", "count/op"), ("net.bytes_per_op", "bytes/op"),
    ("net.rpc.retries", "count"), ("net.rpc.sync_call.calls", "count"),
    ("net.rpc.sync_call.self_ms", "ms"), ("net.transport.deliver.self_ms", "ms"),
    ("net.eventloop.self_ms", "ms"), ("net.vsock.forward.bytes", "bytes"),
    ("net.vsock.forward.self_ms", "ms"), ("net.queue.wait_sim_ms_p99", "ms"),
    ("net.queue.depth_max", "count"),
    ("sandbox.invoke_many.calls", "count"), ("sandbox.invoke_many.self_ms", "ms"),
    ("sandbox.wvm.invoke.calls", "count"), ("sandbox.wvm.invoke.self_ms", "ms"),
    ("sandbox.wvm.fuel_used", "count"),
    ("crypto.ec_mul.calls", "count"), ("crypto.ec_mul.self_ms", "ms"),
    ("crypto.shamir.self_ms", "ms"), ("crypto.bls.self_ms", "ms"),
    ("crypto.hash.bytes", "bytes"),
    ("enclave.attest.calls", "count"), ("enclave.attest.self_ms", "ms"),
    ("enclave.vendor.verify.calls", "count"),
    ("core.deploy.self_ms", "ms"), ("core.invoke_batch.self_ms", "ms"),
    ("core.framework.invoke_many.self_ms", "ms"),
    ("service.scatter.calls", "count"), ("service.scatter.self_ms", "ms"),
    ("service.ring.lookup.calls", "count"), ("service.ring.lookup.self_ms", "ms"),
    ("service.reshard.self_ms", "ms"), ("service.reshard.keys_moved", "count"),
    ("service.reshard.records_moved", "count"),
    ("transparency.publish.calls", "count"), ("transparency.publish.self_ms", "ms"),
    ("transparency.verify.calls", "count"), ("transparency.verify.self_ms", "ms"),
    ("transparency.verify.cost_units", "count"),
    ("apps.client.self_ms", "ms"),
    ("sim.driver.self_ms", "ms"), ("sim.arrival_lag_ms_max", "ms"),
    ("trace.unattributed_frac", "fraction"), ("trace.overhead_frac", "fraction"),
]


def import_all_repro() -> list:
    """Import every module of the ``repro`` package; return them."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    return [module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None]


def resolve(module_name: str, path: str):
    """Return ``(owner, attribute name, current value)`` for a boundary."""
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute, owner.__dict__[attribute]


class Tracer:
    """Span stack plus per-boundary counters, kept in memory for one run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.queue_waits: list[float] = []
        self.rpc_clients: list = []
        self.attributed_s = 0.0
        self._stack: list = []  # [key, child seconds, parent frame] per open span
        self._patches: list = []  # (owner, attribute, original)
        self.originals: dict = {}  # id(original) -> "module.path"

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _enter(self, key: str) -> list:
        frame = [key, 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float, new_call: bool = True) -> None:
        self._stack.pop()
        key, child_s, parent = frame
        self.self_s[key] += elapsed - child_s
        if parent is None:
            self.attributed_s += elapsed
        else:
            parent[1] += elapsed
        # A boundary re-entered from inside itself (call_many -> collect,
        # multiply_cached -> multiply) is one operation, not two.
        if new_call and (parent is None or parent[0] != key):
            self.calls[key] += 1

    def span(self, key: str, fn, extra: str | None):
        """A wrapper timing ``fn`` as a span of ``key``."""
        tracer = self
        clock = time.perf_counter

        if extra == "generator":
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return tracer._timed_generator(key, fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra == "fuel":
                fuel_before = args[0].fuel_used
            frame = tracer._enter(key)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, clock() - start)
            counts = tracer.counts
            if extra == "arg_bytes":
                counts[key + ".bytes"] += len(args[-1])
            elif extra == "result_bytes":
                counts[key + ".bytes"] += len(result)
            elif extra == "fuel":
                counts["sandbox.wvm.fuel_used"] += args[0].fuel_used - fuel_before
            elif extra == "reshard":
                counts["service.reshard.keys_moved"] += result.migrated_keys
                counts["service.reshard.records_moved"] += result.records_moved
            elif extra == "cost_units":
                counts["transparency.verify.cost_units"] += result.cost_units
            return result
        return wrapper

    def _timed_generator(self, key: str, gen):
        """Charge each resumption of ``gen`` to ``key`` as a span of its own;
        only the first resumption counts as a call."""
        clock = time.perf_counter
        value = None
        first = True
        while True:
            frame = self._enter(key)
            start = clock()
            try:
                command = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit(frame, clock() - start, new_call=first)
                first = False
            value = yield command

    def counter(self, kind: str, fn):
        """A wrapper that only counts what crosses ``fn`` (no span)."""
        counts = self.counts

        if kind == "hash_parts":
            @functools.wraps(fn)
            def wrapper(*parts):
                counts["crypto.hash.bytes"] += sum(len(part) for part in parts)
                return fn(*parts)
        elif kind == "hmac_data":
            @functools.wraps(fn)
            def wrapper(key, data):
                counts["crypto.hash.bytes"] += len(data)
                return fn(key, data)
        elif kind == "send":
            @functools.wraps(fn)
            def wrapper(stats, source, destination, size, latency):
                counts["net.messages"] += 1
                counts["net.bytes"] += size
                return fn(stats, source, destination, size, latency)
        elif kind == "enqueue":
            waits = self.queue_waits

            @functools.wraps(fn)
            def wrapper(queue, now, units, cost):
                waits.append(max(0.0, queue.busy_until - now))
                delay = fn(queue, now, units, cost)
                counts["net.queue.depth_max"] = max(counts["net.queue.depth_max"],
                                                    queue.max_depth)
                return delay
        elif kind == "rpc_client":
            clients = self.rpc_clients

            @functools.wraps(fn)
            def wrapper(client, *args, **kwargs):
                fn(client, *args, **kwargs)
                clients.append(client)
        else:
            raise ValueError(f"no counting wrapper named {kind!r}")
        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary, rebinding module-level functions everywhere."""
        modules = import_all_repro()
        for module_name, path, key, extra in BOUNDARIES:
            original = resolve(module_name, path)[2]
            self._patch(modules, module_name, path, self.span(key, original, extra))
        for module_name, path, kind in COUNTERS:
            original = resolve(module_name, path)[2]
            self._patch(modules, module_name, path, self.counter(kind, original))

    def _patch(self, modules: list, module_name: str, path: str, wrapper) -> None:
        owner, attribute, original = resolve(module_name, path)
        self.originals[id(original)] = f"{module_name}.{path}"
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))
        if "." in path:
            return
        # ``from repro.wire.codec import decode`` copied the function into
        # the importing module's namespace; rebind it there too.
        for module in modules:
            if module.__dict__.get(attribute) is original:
                setattr(module, attribute, wrapper)
                self._patches.append((module, attribute, original))

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def unbound_references(self) -> list[str]:
        """Places that still reach an unwrapped boundary after :meth:`install`.

        Covers a module global bound to an original function, a bound method
        of one cached in a module global, and a subclass overriding a wrapped
        method without being wrapped itself.
        """
        missed = []
        for module in import_all_repro():
            for name, value in list(module.__dict__.items()):
                target = getattr(value, "__func__", value)
                if id(target) in self.originals:
                    missed.append(f"{module.__name__}.{name} -> "
                                  f"{self.originals[id(target)]}")
        for module_name, path, *_ in BOUNDARIES + COUNTERS:
            owner, attribute, _ = resolve(module_name, path)
            if not isinstance(owner, type):
                continue
            pending = list(owner.__subclasses__())
            while pending:
                subclass = pending.pop()
                pending.extend(subclass.__subclasses__())
                if attribute in subclass.__dict__:
                    missed.append(f"{subclass.__module__}.{subclass.__qualname__}"
                                  f".{attribute} overrides {module_name}.{path}")
        return missed

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def op_counts(self) -> dict:
        """Counters the per-op ratios come from; diff two of these."""
        return {"decodes": self.calls["wire.decode"],
                "messages": self.counts["net.messages"],
                "bytes": self.counts["net.bytes"]}

    def metrics(self, wall_s: float, ops: int, op_counts: dict) -> dict:
        """Per-layer metric values, keyed as in ``PER_LAYER_METRICS``.

        ``op_counts`` is the :meth:`op_counts` difference over the ``ops``
        operations of the run; everything else is a total over the run.
        """
        values = {}
        for name, _unit in PER_LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = self.calls[base]
            elif field == "self_ms":
                values[name] = self.self_s[base] * 1000.0
            else:
                values[name] = self.counts.get(name, 0)
        values["wire.decodes_per_op"] = op_counts["decodes"] / ops
        values["net.messages_per_op"] = op_counts["messages"] / ops
        values["net.bytes_per_op"] = op_counts["bytes"] / ops
        values["net.rpc.retries"] = sum(client.retries for client in self.rpc_clients)
        if self.queue_waits:
            from repro.sim.metrics import summarize

            values["net.queue.wait_sim_ms_p99"] = summarize(self.queue_waits).p99 * 1000.0
        values["trace.unattributed_frac"] = max(0.0, 1.0 - self.attributed_s / wall_s)
        return values



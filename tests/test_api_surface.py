"""Smoke tests for the public API surface.

These tests guard the package's import structure: everything advertised in the
subpackage ``__all__`` lists must be importable from the documented location,
so downstream users can rely on the paths the examples use
(``examples/quickstart.py`` first). They also guard its size: every public
name in ``src/repro`` has a caller outside ``tests/``, and every module-level
import is used by its module.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.crypto",
    "repro.wire",
    "repro.net",
    "repro.enclave",
    "repro.sandbox",
    "repro.transparency",
    "repro.core",
    "repro.service",
    "repro.apps",
    "repro.sim",
]


class TestPackageMetadata:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a module docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name}"


class TestDocumentedEntryPoints:
    def test_readme_quickstart_path(self):
        """The entry points ``examples/quickstart.py`` builds from (a developer
        identity, a code package, the WVM BLS-share program) still deploy and
        pass the audit when used directly."""
        from repro.core.client import AuditingClient
        from repro.core.deployment import Deployment, DeploymentConfig
        from repro.core.package import CodePackage, DeveloperIdentity
        from repro.sandbox.programs import bls_share_source

        developer = DeveloperIdentity("readme")
        deployment = Deployment("readme", developer, DeploymentConfig(num_domains=2))
        package = CodePackage("bls-custody", "1.0.0", "wvm", bls_share_source())
        deployment.publish_and_install(package)
        assert AuditingClient(deployment.vendor_registry).audit_deployment(deployment).ok

    def test_error_hierarchy_single_root(self):
        from repro import errors

        exception_types = [
            getattr(errors, name) for name in errors.__all__
            if isinstance(getattr(errors, name), type)
        ]
        assert all(issubclass(exc, errors.ReproError) for exc in exception_types)

    def test_public_docstrings_on_core_classes(self):
        from repro.core.client import AuditingClient
        from repro.core.deployment import Deployment
        from repro.core.framework import TrustDomainFramework
        from repro.core.trust_domain import TrustDomain
        from repro.service import HashRing, ServiceClient, ServiceSpec, ShardedService

        for cls in (AuditingClient, Deployment, TrustDomainFramework, TrustDomain,
                    ServiceSpec, ShardedService, ServiceClient, HashRing):
            assert cls.__doc__
            public_methods = [
                attr for name, attr in vars(cls).items()
                if callable(attr) and not name.startswith("_")
            ]
            assert all(method.__doc__ for method in public_methods), cls


class TestServicePlaneSurface:
    """The service-plane redesign's API surface, pinned.

    The redesign moved the four apps onto `repro.service`; these tests make
    sure the new exports stay importable from the documented locations AND
    that the legacy per-app constructors (the pre-redesign surface every
    existing test, example, and scenario driver uses) keep working unchanged.
    """

    def test_service_exports(self):
        from repro.service import (  # noqa: F401
            HashRing,
            PackageBinding,
            ServiceClient,
            ServiceSpec,
            ShardedService,
        )
        from repro.service.spec import PackageBinding as SpecBinding
        from repro.net.rpc import PendingRpcBatch, ServiceTimeModel  # noqa: F401
        from repro.core.deployment import PendingInvokeBatch  # noqa: F401
        from repro.errors import ServiceSpecError  # noqa: F401

        assert SpecBinding is PackageBinding

    def test_split_phase_invoke_surface(self):
        from repro.core.deployment import Deployment
        from repro.net.rpc import RpcClient, RpcServer

        assert callable(Deployment.begin_invoke_batch)
        assert callable(Deployment.set_service_time)
        assert callable(RpcClient.begin_many)
        assert "service_model" in RpcServer.__init__.__code__.co_varnames

    def test_legacy_app_constructors_still_work(self):
        """The exact pre-redesign constructor shapes, with their attributes."""
        from repro.apps import (
            CustodyDeployment,
            KeyBackupDeployment,
            ObliviousDnsDeployment,
            PrivateAggregationDeployment,
        )
        from repro.core.deployment import Deployment
        from repro.service import ShardedService

        services = [
            KeyBackupDeployment(num_domains=3, threshold=2),
            PrivateAggregationDeployment(num_servers=2, max_value=10),
            ObliviousDnsDeployment(records={"a.example.org": "192.0.2.1"}),
            CustodyDeployment(threshold=2, num_signers=3, keygen_seed=b"apisurfc"),
        ]
        for service in services:
            # The legacy single-deployment handle AND the new plane coexist.
            assert isinstance(service.deployment, Deployment)
            assert isinstance(service.plane, ShardedService)
            assert service.plane.primary is service.deployment
            assert service.plane.num_shards == 1

    @pytest.mark.parametrize("app", ["keybackup", "prio", "odoh", "custody"])
    def test_legacy_clients_expose_session_and_auditing_client(self, app):
        """Every app keeps the shell's surface: the session, its auditing
        client, ``audit()`` in the legacy shape (one report on one shard, a
        list on more), and the service's ``num_shards`` and ``reshard``."""
        from repro import apps
        from repro.core.client import AuditingClient
        from repro.service import ReshardReport, ServiceClient

        make_service, client_class = {
            "keybackup": (lambda shards: apps.KeyBackupDeployment(
                num_domains=2, threshold=2, shards=shards), apps.KeyBackupClient),
            "prio": (lambda shards: apps.PrivateAggregationDeployment(
                num_servers=2, shards=shards), apps.PrivateAggregationClient),
            "odoh": (lambda shards: apps.ObliviousDnsDeployment(
                records={"a.example.org": "192.0.2.1"}, shards=shards),
                apps.ObliviousDnsClient),
            "custody": (lambda shards: apps.CustodyDeployment(
                threshold=2, num_signers=3, keygen_seed=b"apisurfc",
                shards=shards), apps.CustodyClient),
        }[app]
        service = make_service(1)
        client = client_class(service, audit_before_use=False)
        assert isinstance(client.session, ServiceClient)
        assert isinstance(client.auditing_client, AuditingClient)
        assert client.auditing_client is client.session.auditing_client
        assert client.audit().ok
        assert service.num_shards == 1

        sharded = make_service(2)
        reports = client_class(sharded, audit_before_use=False).audit()
        assert isinstance(reports, list) and len(reports) == 2
        assert all(report.ok for report in reports)
        assert sharded.num_shards == 2

        assert isinstance(service.reshard(2), ReshardReport)
        assert service.num_shards == service.plane.num_shards == 2
        assert len(client.audit()) == 2

    def test_apps_accept_shards_keyword(self):
        from repro.apps import KeyBackupDeployment, PrivateAggregationDeployment

        assert KeyBackupDeployment(num_domains=2, shards=2).plane.num_shards == 2
        assert PrivateAggregationDeployment(num_servers=2, shards=3).num_shards == 3


# ---------------------------------------------------------------------------
# The caller guard: code an auditor must read is code the system runs
# ---------------------------------------------------------------------------

# Public names with no caller outside tests/ that stay on purpose. Each entry
# is one of four kinds, and its reason says which:
#   (a) an open ROADMAP item's plan uses it; the PR that lands the item gives
#       it a caller or deletes it, and drops the entry;
#   (b) an app's user-facing operation;
#   (c) a remaining test's oracle for some other behaviour (the test named);
#   (d) test-only code whose own unit tests are still in tier-1; ROADMAP
#       item 18 deletes the two together, a few tests at a time.
CALLERLESS_ALLOWLIST = {
    "ThirdPartyAuditor": "(a) ROADMAP item 10 moves its checks into "
                         "AuditorService, then deletes core/auditor.py",
    "ThirdPartyAuditor.run_audit": "(a) ROADMAP item 10, with ThirdPartyAuditor",
    "ThirdPartyAuditor.deployment_healthy": "(a) ROADMAP item 10, with "
                                            "ThirdPartyAuditor",
    "LogMonitor.healthy": "(a) ROADMAP item 10 moves the monitor's checks into "
                          "AuditorService, then deletes transparency/monitor.py",
    "GossipPool": "(a) ROADMAP item 10: the auditor gossips tree heads with "
                  "clients, so a split view yields evidence",
    "GossipPool.observations": "(a) ROADMAP item 10, with GossipPool",
    "GossipPool.observers": "(a) ROADMAP item 10, with GossipPool",
    "AuditorService.gossip": "(a) ROADMAP item 10, with GossipPool",
    "CtLog.find": "(a) ROADMAP item 10: domains and clients check releases "
                  "against the release log",
    "CtLog.verify_inclusion": "(a) ROADMAP item 10: a domain refuses a manifest "
                              "that is not a leaf of a signed tree head",
    "CtLog.verify_consistency": "(a) ROADMAP item 10: the auditor checks "
                                "tree-head consistency between polls",
    "VendorExploit.defeats_application": "(a) ROADMAP item 5: a layout's "
                                         "worst common-mode vendor reach",
    "DeveloperCompromise.can_recover_secret": "(a) ROADMAP item 5: the reach "
                                              "with the developer domain added",
    "EnclaveMemory.wipe": "(a) ROADMAP item 11: a memory-losing restart wipes "
                          "the enclave's volatile state",
    "KeyBackupClient.delete_backup": "(b) key backup's delete operation, the "
                                     "only client of the delete_share handler",
    "VsockProxyChain.total_simulated_latency": (
        "(c) tests/net/test_rpc_vsock.py::TestHopDelay::"
        "test_latency_charged_to_the_response reads the hops' delay with it"),
    "MultiClientWorkload.from_scenario": (
        "(c) tests/sim/test_workload.py::TestOneOpLoop::"
        "test_a_load_run_of_a_scenario_is_that_scenario_run builds the load "
        "run of each matrix scenario with it"),
}

# Kind (d), by the test modules that hold each name's unit tests.
_KEPT_WITH_THEIR_TESTS = {
    "tests/core/test_package_registry.py": ["ReleaseRegistry.lookup_version"],
    "tests/crypto/test_bls.py": ["BilinearGroup.negate", "bls_aggregate",
                                 "bls_aggregate_verify"],
    "tests/crypto/test_feldman.py": ["FeldmanVSS", "FeldmanVSS.verify_shares",
                                     "FeldmanVSS.public_commitment"],
    "tests/crypto/test_field.py": ["FieldElement.is_zero", "PrimeField.elements"],
    "tests/crypto/test_hashchain.py": ["HashChain.verify_extension",
                                       "HashChain.payloads"],
    "tests/crypto/test_hashes.py": ["sha256_hex", "double_sha256"],
    "tests/crypto/test_signatures.py": ["VerifyingKey.fingerprint"],
    "tests/crypto/test_secp256k1.py": ["Secp256k1.negate"],
    "tests/enclave/test_enclaves.py": ["EnclaveMemory.read", "EnclaveMemory.delete",
                                       "EnclaveBase.loaded_code"],
    "tests/enclave/test_measurement_vendor.py": ["HardwareVendor.issued_devices"],
    "tests/net/test_clock_latency.py": ["SimClock.wall_time", "LatencyMap.rtt_s",
                                        "UniformLatency"],
    "tests/net/test_rpc_vsock.py": ["RpcServer.registered_methods"],
    "tests/sim/test_scenarios.py and tests/service/test_reshard.py": [
        "Network.remove_fault_hook"],
    "tests/sandbox/test_programs_executors.py": ["WvmExecutor.describe"],
    "tests/service/test_reshard.py": ["RingDiff.by_route"],
    "tests/sim/test_metrics.py and tests/sim/test_sim.py": [
        "LatencyStats.overhead_vs"],
    "tests/transparency/test_digest_log.py": ["DigestLog.chain_entries"],
}
CALLERLESS_ALLOWLIST.update(
    (name, f"(d) only {tests} calls it; ROADMAP item 18 deletes both")
    for tests, names in _KEPT_WITH_THEIR_TESTS.items() for name in names)

# Module-level imports their own module never uses, kept on purpose.
UNUSED_IMPORT_ALLOWLIST = {
    "net/eventloop.py:decode": "perfbench's `rpc.decode is eventloop.decode` "
                               "chain reads it; ROADMAP item 1 drops both",
}


@functools.lru_cache(maxsize=None)
def _scan(path: Path) -> dict:
    """One walk over the module at ``path``.

    Returns what it names: ``"names"`` (``Name`` ids), ``"attributes"``,
    ``"imported"`` (``ImportFrom`` aliases), ``"strings"`` (the dot-separated
    parts of its string constants) and ``"listed"`` (the strings of its
    ``__all__``); docstrings name nothing. Also what it defines:
    ``"definitions"``, its public top-level functions and classes and their
    public methods as ``(qualified name, line)``, and ``"imports"``, its
    module-level imports as ``(bound name, line)``.
    """
    tree = ast.parse(path.read_text(), str(path))
    uses = {kind: set() for kind in
            ("names", "attributes", "imported", "strings", "listed")}
    docstrings, listed = set(), set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    # ast.walk visits a node before its children, so a docstring or an
    # __all__ value is marked before the walk reaches it.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses["names"].add(node.id)
        elif isinstance(node, ast.Attribute):
            uses["attributes"].add(node.attr)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in docstrings:
                kind = "listed" if id(node) in listed else "strings"
                uses[kind].update(node.value.split("."))
        elif isinstance(node, ast.ImportFrom):
            uses["imported"].update(alias.name for alias in node.names)
        elif isinstance(node, scopes):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if node.value is not None and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in targets):
                listed.update(id(child) for child in ast.walk(node.value))
    uses["definitions"], uses["imports"] = [], []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                uses["imports"] += [(alias.asname or alias.name.split(".")[0],
                                     node.lineno) for alias in node.names]
        elif (isinstance(node, functions + (ast.ClassDef,))
                and not node.name.startswith("_")):
            uses["definitions"].append((node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                uses["definitions"] += [
                    (f"{node.name}.{item.name}", item.lineno) for item in node.body
                    if isinstance(item, functions) and not item.name.startswith("_")]
    return uses


def public_definitions(package: Path) -> dict:
    """Every public top-level function and class under ``package``, and every
    public method of a top-level class, as ``{qualified name: location}``."""
    return {name: f"{path.relative_to(package)}:{line}"
            for path in sorted(package.rglob("*.py"))
            for name, line in _scan(path)["definitions"]}


def names_used_outside_tests(root: Path) -> set:
    """Every name a ``.py`` file under ``root`` (outside ``tests/``) uses: as
    a ``Name`` or an ``Attribute``, in an ``ImportFrom`` that is not a package
    ``__init__`` re-export, or as a dot-separated part of a string constant
    (``"RpcClient.call_many"``, a ``getattr`` table). Docstrings and
    ``__all__`` entries are not uses."""
    used = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if parts[0] == "tests" or any(part.startswith(".") for part in parts):
            continue
        uses = _scan(path)
        used |= uses["names"] | uses["attributes"] | uses["strings"]
        if path.name != "__init__.py":
            used |= uses["imported"]
    return used


def names_without_callers(root: Path, package: Path) -> dict:
    """The public names under ``package`` that nothing outside ``tests/``
    uses, as ``{qualified name: location}``."""
    used = names_used_outside_tests(root)
    return {name: where for name, where in public_definitions(package).items()
            if name.rsplit(".", 1)[-1] not in used}


def unused_imports(package: Path) -> dict:
    """Module-level imports their module never names, as
    ``{"module.py:name": line}``. A package ``__init__`` re-exports, so its
    imports are left out; a name in a string (an annotation, a ``getattr``,
    ``__all__``) counts as a use."""
    unused = {}
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        uses = _scan(path)
        used = uses["names"] | uses["strings"] | uses["listed"]
        unused.update((f"{path.relative_to(package)}:{bound}", line)
                      for bound, line in uses["imports"] if bound not in used)
    return unused


class TestLayering:
    def test_apps_do_not_import_the_simulator(self):
        """The applications sit below the simulator: ``repro.sim`` drives and
        attacks them, so no module under ``repro.apps`` may import it."""
        apps = Path(repro.__file__).parent / "apps"
        offenders = []
        for path in sorted(apps.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} imports {name}"
                              for name in names
                              if name == "repro.sim" or name.startswith("repro.sim.")]
        assert not offenders, offenders

    def test_only_the_transport_and_event_loop_advance_the_shared_clock(self):
        """Nothing in a request handler advances the shared clock: a layer
        that costs sim time charges it to the request that crossed it (as a
        response delay or service-queue time). Only the transport's pump and
        the event loop move simulated time."""
        src = Path(repro.__file__).parent
        allowed = {Path("net/transport.py"), Path("net/eventloop.py")}
        callers = set()
        offenders = []
        for path in sorted(src.rglob("*.py")):
            relative = path.relative_to(src)
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("advance", "advance_to")):
                    callers.add(relative)
                    if relative not in allowed:
                        offenders.append(f"{relative}:{node.lineno} calls "
                                         f".{node.func.attr}()")
        assert not offenders, offenders
        assert callers == allowed


    def test_every_public_name_has_a_caller_outside_tests(self):
        """Every public name in ``src/repro`` is code the system runs: a
        module outside ``tests/`` (``src/``, ``examples/``, ``benchmarks/``,
        ``perfbench/``) uses it, or it is on the allowlist with its reason."""
        package = Path(repro.__file__).parent
        callerless = names_without_callers(package.parents[1], package)
        offenders = sorted(f"{where} {name}" for name, where in callerless.items()
                           if name not in CALLERLESS_ALLOWLIST)
        assert not offenders, offenders
        # An entry whose name gained a caller (or went) leaves the list.
        assert sorted(set(CALLERLESS_ALLOWLIST) - set(callerless)) == []
        assert all(reason[:3] in ("(a)", "(b)", "(c)", "(d)")
                   for reason in CALLERLESS_ALLOWLIST.values())

    def test_every_module_level_import_is_used(self):
        unused = unused_imports(Path(repro.__file__).parent)
        offenders = sorted(f"{name} (line {line})" for name, line in unused.items()
                           if name not in UNUSED_IMPORT_ALLOWLIST)
        assert not offenders, offenders
        assert sorted(set(UNUSED_IMPORT_ALLOWLIST) - set(unused)) == []

    def test_the_guard_flags_test_only_and_all_only_names(self, tmp_path):
        """The scans on a small tree: a function only a test calls and a name
        only ``__all__`` (and its package's re-export) lists are flagged, as
        is a name only a docstring mentions; a method named by a dotted string
        or a function read by a ``getattr`` string is used."""
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "tests").mkdir()
        (package / "__init__.py").write_text(
            "from pkg.mod import listed_only\n__all__ = [\"listed_only\"]\n")
        (package / "mod.py").write_text(
            "import os\n"
            "import sys\n"
            "__all__ = [\"listed_only\"]\n"
            "def tested_only():\n    return sys.maxsize\n"
            "def listed_only():\n    pass\n"
            "def mentioned_only():\n    \"\"\"See tested_only.\"\"\"\n"
            "def by_getattr():\n    pass\n"
            "def called():\n    pass\n"
            "class Layer:\n"
            "    def traced(self):\n        pass\n")
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from pkg.mod import tested_only\n"
            "def test_it():\n    tested_only()\n")
        (tmp_path / "tool.py").write_text(
            "import pkg.mod as mod\n"
            "BOUNDARIES = [(\"pkg.mod\", \"Layer.traced\")]\n"
            "mod.called()\n"
            "getattr(mod, \"by_getattr\")()\n")
        assert set(names_without_callers(tmp_path, package)) == {
            "tested_only", "listed_only", "mentioned_only"}
        assert unused_imports(package) == {"mod.py:os": 1}

    def test_every_kept_name_is_called_by_its_tests(self):
        """A kind-(d) entry is true while the test modules it names still
        call the name; when they stop, the entry and the code go too."""
        root = Path(repro.__file__).parents[2]
        for modules, names in _KEPT_WITH_THEIR_TESTS.items():
            used = set()
            for module in modules.split(" and "):
                uses = _scan(root / module)
                used |= uses["names"] | uses["attributes"] | uses["imported"]
            missing = [name for name in names
                       if name.rsplit(".", 1)[-1] not in used]
            assert not missing, (modules, missing)

    def test_the_guard_collects_only_public_top_level_names(self, tmp_path):
        """Private functions and methods, and the methods of a nested class,
        are not definitions the guard asks a caller for."""
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text(
            "def _private():\n    pass\n"
            "def public():\n    pass\n"
            "class Outer:\n"
            "    def _helper(self):\n        pass\n"
            "    def method(self):\n        pass\n"
            "    class Inner:\n"
            "        def hidden(self):\n            pass\n"
            "class _Hidden:\n"
            "    def method(self):\n        pass\n")
        assert set(public_definitions(package)) == {
            "public", "Outer", "Outer.method"}

    def test_a_string_only_tests_hold_is_no_use(self, tmp_path):
        """A dotted string in ``tests/`` (a ``monkeypatch`` target) does not
        keep a name alive; the same string outside ``tests/`` does."""
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "tests").mkdir()
        (package / "mod.py").write_text(
            "def patched():\n    pass\n"
            "def named_by_a_tool():\n    pass\n")
        (tmp_path / "tests" / "test_mod.py").write_text(
            "def test_it(monkeypatch):\n"
            "    monkeypatch.setattr(\"pkg.mod.patched\", lambda: None)\n")
        (tmp_path / "tool.py").write_text(
            "TARGETS = [\"pkg.mod.named_by_a_tool\"]\n")
        assert set(names_without_callers(tmp_path, package)) == {"patched"}

    def test_the_import_guard_reads_the_bound_name(self, tmp_path):
        """``import a.b`` binds ``a``, ``import x as y`` binds ``y``; a name
        used only in a string annotation is used, and ``__future__``
        imports are never flagged."""
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text(
            "from __future__ import annotations\n"
            "import os.path\n"
            "import json as codec\n"
            "import collections as unused_alias\n"
            "from typing import Iterable\n"
            "def f(items: \"Iterable\"):\n"
            "    return os.path.join(*map(codec.dumps, items))\n")
        assert unused_imports(package) == {"mod.py:unused_alias": 4}

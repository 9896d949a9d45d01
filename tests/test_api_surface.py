"""Smoke tests for the public API surface.

These tests guard the package's import structure: everything advertised in the
subpackage ``__all__`` lists must be importable from the documented location,
so downstream users can rely on the paths README.md and the examples use.
"""

import ast
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
        """The exact imports used in README.md's quickstart must keep working."""
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

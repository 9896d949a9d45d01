"""Unit tests for code packages, update manifests, and the release registry."""

import pytest

from repro.core.package import CodePackage, DeveloperIdentity, UpdateManifest
from repro.core.registry import ReleaseRegistry
from repro.errors import AuditError, UpdateRejectedError


def make_package(version="1.0.0", source="func f(params=0, locals=0) export\n halt\nendfunc"):
    return CodePackage("demo-app", version, "wvm", source)


class TestCodePackage:
    def test_digest_deterministic(self):
        assert make_package().digest() == make_package().digest()

    def test_digest_changes_with_source(self):
        assert make_package().digest() != make_package(source="; changed\n" + make_package().source).digest()

    def test_digest_changes_with_version(self):
        assert make_package("1.0.0").digest() != make_package("1.0.1").digest()

    def test_dict_round_trip(self):
        package = make_package()
        assert CodePackage.from_dict(package.to_dict()) == package

    def test_unknown_language_rejected(self):
        with pytest.raises(UpdateRejectedError):
            CodePackage("x", "1.0", "javascript", "code")

    def test_empty_name_rejected(self):
        with pytest.raises(UpdateRejectedError):
            CodePackage("", "1.0", "wvm", "code")

    def test_python_language_accepted(self):
        package = CodePackage("x", "1.0", "python", "def handle(m, p, s):\n    return 1")
        assert package.language == "python"


class TestUpdateManifest:
    def test_sign_and_verify(self):
        developer = DeveloperIdentity("acme")
        manifest = developer.sign_update(make_package(), 0)
        assert manifest.verify(developer.public_key)
        assert manifest.sequence == 0
        assert manifest.package_digest == make_package().digest()

    def test_other_key_rejected(self):
        developer = DeveloperIdentity("acme")
        impostor = DeveloperIdentity("impostor")
        manifest = developer.sign_update(make_package(), 0)
        assert not manifest.verify(impostor.public_key)

    def test_tampered_manifest_rejected(self):
        developer = DeveloperIdentity("acme")
        manifest = developer.sign_update(make_package(), 0)
        tampered = UpdateManifest(
            package_name=manifest.package_name,
            version="6.6.6",
            sequence=manifest.sequence,
            package_digest=manifest.package_digest,
            signature=manifest.signature,
        )
        assert not tampered.verify(developer.public_key)

    def test_dict_round_trip(self):
        developer = DeveloperIdentity("acme")
        manifest = developer.sign_update(make_package(), 3)
        assert UpdateManifest.from_dict(manifest.to_dict()) == manifest

    def test_negative_sequence_rejected(self):
        with pytest.raises(UpdateRejectedError):
            DeveloperIdentity("acme").sign_update(make_package(), -1)


class TestReleaseRegistry:
    def _registry(self):
        return ReleaseRegistry("framework source text"), DeveloperIdentity("acme")

    def test_publish_and_lookup(self):
        registry, developer = self._registry()
        package = make_package()
        manifest = developer.sign_update(package, 0)
        digest = registry.publish(package, manifest)
        assert registry.lookup(digest).package == package
        assert registry.lookup_version("1.0.0").manifest == manifest
        assert registry.contains(digest)
        assert registry.versions() == ["1.0.0"]
        assert registry.digests() == [digest]

    def test_framework_source_exposed(self):
        registry, _ = self._registry()
        assert registry.framework_source() == "framework source text"

    def test_mismatched_manifest_rejected(self):
        registry, developer = self._registry()
        package = make_package()
        other_manifest = developer.sign_update(make_package("2.0.0"), 0)
        with pytest.raises(AuditError):
            registry.publish(package, other_manifest)

    def test_lookup_unknown_digest(self):
        registry, _ = self._registry()
        with pytest.raises(AuditError):
            registry.lookup(b"\x00" * 32)

    def test_lookup_unknown_version(self):
        registry, _ = self._registry()
        with pytest.raises(AuditError):
            registry.lookup_version("9.9.9")

    def test_verify_source(self):
        registry, developer = self._registry()
        package = make_package()
        digest = registry.publish(package, developer.sign_update(package, 0))
        assert registry.verify_source(digest)

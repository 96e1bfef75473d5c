"""The study manifest: one journal header over per-shard checkpoint files.

A sharded study cannot checkpoint into a single journal -- shards finish
segments concurrently and each owns its own snapshot.  Instead the manifest
file (the path the operator passes to ``--journal``) records the study-wide
facts once -- config, fault-plan fingerprint, package list, campaigns, and
the worker count -- plus the shard table mapping each shard to its own
``<manifest>.shard-NNN`` checkpoint journal.

Resume validation happens here, before any shard is spawned or any file is
touched: a journal recorded by a different study kind, under a different
config, a different fault plan, or a different ``--workers`` count is
rejected with an error saying exactly what to change.
The worker count is part of the contract not for determinism (results are
worker-count independent) but because a kill under ``workers=1`` may leave
a shared kill-switch mid-shard state that a parallel resume could not have
produced, and silently resuming under different parallelism would make the
wall-clock bookkeeping in the bench artifacts lie.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.faults.journal import CheckpointJournal

MANIFEST_VERSION = 1


class StudyManifest:
    """Header + shard table for one sharded, journalled study."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._journal = CheckpointJournal(self.path)

    def shard_journal_path(self, index: int) -> str:
        return f"{self.path}.shard-{index:03d}"

    def start(
        self,
        *,
        study: str,
        config: str,
        fault_fingerprint: str,
        packages: Sequence[str],
        campaigns: Sequence[str],
        workers: int,
        shards: Sequence[Any],
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the manifest header (truncating any previous manifest).

        *study* is the study kind that owns the shard journals.  *extra*
        carries kind-specific facts (the fleet study records its fleet
        size, cohort spec and lane count here) so a resume can
        rebuild the exact plan without the operator repeating the flags.
        """
        header = {
            "kind": "study-manifest",
            "manifest_version": MANIFEST_VERSION,
            "study": study,
            "config": config,
            "fault_fingerprint": fault_fingerprint,
            "packages": list(packages),
            "campaigns": list(campaigns),
            "workers": workers,
            "shards": [
                {
                    "index": spec.index,
                    "key": spec.key,
                    "packages": list(spec.packages),
                    "journal": self.shard_journal_path(spec.index),
                }
                for spec in shards
            ],
        }
        if extra:
            header.update(extra)
        self._journal.start(header)

    def header(self) -> Dict[str, Any]:
        return self._journal.header()

    def validate_resume(
        self, *, study: str, config: str, fault_fingerprint: str, workers: int
    ) -> Dict[str, Any]:
        """Check the manifest matches the live run; return its header.

        The study kind is checked first: resuming another kind's manifest
        would overwrite its shard journals.  A header without a kind was
        written by a wear study.
        """
        header = self.header()
        recorded_study = header.get("study", "wear")
        if recorded_study != study:
            raise ValueError(
                f"journal {self.path} was recorded by a {recorded_study!r} "
                f"study, not a {study} study"
            )
        if header.get("config") != config:
            raise ValueError(
                f"journal {self.path} was recorded under config "
                f"{header.get('config')!r}, not {config!r}"
            )
        if header.get("fault_fingerprint") != fault_fingerprint:
            raise ValueError(
                f"journal {self.path} was recorded under fault plan "
                f"{header.get('fault_fingerprint')!r}; the installed plan is "
                f"{fault_fingerprint!r} -- resume under the original plan"
            )
        recorded = header.get("workers", 1)
        if recorded != workers:
            raise ValueError(
                f"journal {self.path} was recorded with --workers {recorded}, "
                f"not --workers {workers} -- resume with --workers {recorded}"
            )
        return header

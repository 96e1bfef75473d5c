"""The log-driven analysis pipeline: parsing, root-causing, classification,
and the generators for every table and figure in the paper.

The software-aging extension (``repro.analysis.aging``) is not imported
here: it needs numpy and scipy, and no report, study or service path uses
it, so callers import it directly."""

from repro.analysis.figures import (
    fig2_exception_distribution,
    fig3a_manifestations,
    fig3b_base_counts,
    fig3b_rootcause_by_manifestation,
    fig4_crashes_by_app_class,
)
from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    NativeSignalEvent,
    RebootEvent,
    SecurityDenialEvent,
    parse_events,
    parse_lines,
)
from repro.analysis.manifest import (
    ComponentRecord,
    Manifestation,
    RebootPostMortem,
    StudyCollector,
)
from repro.analysis.rootcause import (
    attribute_anr,
    equal_blame,
    guilty_class,
    reboot_culprit_classes,
    reboot_window_events,
)
from repro.analysis.tables import (
    table1_campaigns,
    table2_population,
    table3_behaviors,
    table4_phone_crashes,
    table5_ui,
)

__all__ = [
    "AnrEvent",
    "ComponentRecord",
    "FatalExceptionEvent",
    "HandledExceptionEvent",
    "Manifestation",
    "NativeSignalEvent",
    "RebootEvent",
    "RebootPostMortem",
    "SecurityDenialEvent",
    "StudyCollector",
    "attribute_anr",
    "equal_blame",
    "fig2_exception_distribution",
    "fig3a_manifestations",
    "fig3b_base_counts",
    "fig3b_rootcause_by_manifestation",
    "fig4_crashes_by_app_class",
    "guilty_class",
    "parse_events",
    "parse_lines",
    "reboot_culprit_classes",
    "reboot_window_events",
    "table1_campaigns",
    "table2_population",
    "table3_behaviors",
    "table4_phone_crashes",
    "table5_ui",
]

"""Parsing device logs back into structured failure events.

The paper's methodology is log-driven: "we collected all of the log files
(over 2GB) from the wearable using logcat, through the adb interface.
Then, we analyzed the logs to gather information, and for each component
classified the behavior of the application."  This module is that first
analysis stage: plain ``threadtime`` logcat text in, a typed event stream
out.

Recognised events:

* ``FATAL EXCEPTION: main`` blocks → :class:`FatalExceptionEvent` (with the
  full ``Caused by:`` chain and the app stack frames for attribution);
* app-logged (caught) exceptions → :class:`HandledExceptionEvent`;
* ``ActivityManager`` permission denials → :class:`SecurityDenialEvent`;
* ANR blocks → :class:`AnrEvent`;
* fatal native signals → :class:`NativeSignalEvent`;
* reboot markers → :class:`RebootEvent`.

The parser is *total*: arbitrary garbage lines are skipped, never raised on
-- a property the test suite checks with hypothesis, because a fuzzing
study's own log parser dying on weird logs would be a bad joke.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator, List, Optional, Sequence, Tuple, Union

# `06-20 10:00:01.234  1234  1234 E AndroidRuntime: message`
_LINE_RE = re.compile(
    r"^(?P<month>\d{2})-(?P<day>\d{2}) "
    r"(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2})\.(?P<ms>\d{3}) +"
    r"(?P<pid>\d+) +(?P<tid>\d+) (?P<level>[VDIWEF]) (?P<tag>[^:]+): (?P<message>.*)$"
)

#: A Java exception class name: dotted lowercase packages, CamelCase class,
#: possibly with inner-class ``$`` parts.
_EXC_CLASS = r"(?:[a-z][\w]*\.)+[A-Z][\w$]*(?:Exception|Error)"
_EXC_RE = re.compile(rf"(?P<cls>{_EXC_CLASS})(?:: (?P<msg>.*))?$")
_EXC_CLASS_RE = re.compile(rf"(?P<cls>{_EXC_CLASS})")
_FRAME_RE = re.compile(r"^\t?at (?P<cls>[\w.$]+)\.(?P<method>[\w<>$-]+)\((?P<loc>[^)]*)\)$")
_ANR_RE = re.compile(r"^ANR in (?P<process>\S+) \((?P<component>[^)]+)\)$")
_NATIVE_RE = re.compile(
    r"^Fatal signal (?P<number>\d+) \((?P<signal>\w+)\) in (?P<process>\S+)(?:: (?P<reason>.*))?$"
)
_REBOOT_RE = re.compile(r"^!!! SYSTEM REBOOT: (?P<reason>.*) !!!$")
_CMP_RE = re.compile(r"cmp=(?P<cmp>[\w.$]+/[\w.$]+)")
_DENIAL_TO_RE = re.compile(r" to ([\w.$]+/[\w.$]+)")


def _names_exception(message: str) -> bool:
    """Cheap exact prefilter for the exception-class searches.

    ``_EXC_CLASS`` ends in the literal ``Exception`` or ``Error``, so a
    message without either cannot match; skipping it spares the search its
    backtracking over long dotted, exception-free lines.
    """
    return "Exception" in message or "Error" in message


def _parse_time_ms(match: "re.Match[str]") -> float:
    """Invert the logcat timestamp back to virtual milliseconds-since-boot."""
    day = int(match.group("day")) - 20
    hour = int(match.group("hour")) - 10 + day * 24
    return (
        hour * 3_600_000
        + int(match.group("minute")) * 60_000
        + int(match.group("second")) * 1_000
        + int(match.group("ms"))
    )


@dataclasses.dataclass
class LogLine:
    time_ms: float
    pid: int
    level: str
    tag: str
    message: str


@dataclasses.dataclass
class FatalExceptionEvent:
    """One uncaught-exception crash (a FATAL EXCEPTION block)."""

    time_ms: float
    process: str
    pid: int
    exception_chain: List[str]          # outermost → innermost class names
    messages: List[str]
    frames: List[str]                   # app-frame class names, topmost first

    @property
    def outer_class(self) -> str:
        return self.exception_chain[0]

    @property
    def root_class(self) -> str:
        return self.exception_chain[-1]


@dataclasses.dataclass
class HandledExceptionEvent:
    """An exception an app caught and logged (W-level)."""

    time_ms: float
    pid: int
    tag: str
    exception_class: str
    message: Optional[str]
    frames: List[str]


@dataclasses.dataclass
class SecurityDenialEvent:
    """A system-side SecurityException (permission denial)."""

    time_ms: float
    detail: str
    component: Optional[str]            # flat component string if extractable


@dataclasses.dataclass
class AnrEvent:
    time_ms: float
    process: str
    component: str                      # short component string
    reason: str


@dataclasses.dataclass
class NativeSignalEvent:
    time_ms: float
    signal: str
    number: int
    process: str
    reason: str


@dataclasses.dataclass
class RebootEvent:
    time_ms: float
    reason: str


LogEvent = Union[
    FatalExceptionEvent,
    HandledExceptionEvent,
    SecurityDenialEvent,
    AnrEvent,
    NativeSignalEvent,
    RebootEvent,
]


def parse_lines(text: str) -> Iterator[LogLine]:
    """Tokenise logcat text; malformed lines are skipped."""
    for raw in text.splitlines():
        match = _LINE_RE.match(raw)
        if match is None:
            continue
        yield LogLine(
            time_ms=_parse_time_ms(match),
            pid=int(match.group("pid")),
            level=match.group("level"),
            tag=match.group("tag").strip(),
            message=match.group("message"),
        )


#: ``(text, lines)`` of the last :func:`parse_events` call, taken by the
#: :func:`attach_handled_frames` pass over the same text so that the text is
#: tokenised once.  Keyed on identity; a missing or other entry (another
#: caller, another thread) only costs a re-tokenise.
_last_parse: Tuple[Optional[str], List[LogLine]] = (None, [])


def parse_events(text: str) -> List[LogEvent]:
    """Extract the full event stream from logcat text."""
    global _last_parse
    events: List[LogEvent] = []
    lines = list(parse_lines(text))
    _last_parse = (text, lines)
    i = 0
    while i < len(lines):
        line = lines[i]
        consumed = (
            _try_fatal_block(lines, i, events)
            or _try_anr_block(lines, i, events)
            or _try_single_line(line, events)
        )
        i += max(consumed, 1)
    return events


# -- block scanners -----------------------------------------------------------


def _try_fatal_block(lines: Sequence[LogLine], i: int, events: List[LogEvent]) -> int:
    line = lines[i]
    if line.tag != "AndroidRuntime" or line.message != "FATAL EXCEPTION: main":
        return 0
    process, pid = "", line.pid
    chain: List[str] = []
    messages: List[str] = []
    frames: List[str] = []
    j = i + 1
    while j < len(lines) and lines[j].tag == "AndroidRuntime" and lines[j].pid == line.pid:
        message = lines[j].message
        if message == "FATAL EXCEPTION: main":
            break
        if message.startswith("Process: "):
            process = message[len("Process: "):].split(",", 1)[0]
        elif message.startswith("Caused by: "):
            exc = _EXC_RE.match(message[len("Caused by: "):])
            if exc:
                chain.append(exc.group("cls"))
                messages.append(exc.group("msg") or "")
        elif _FRAME_RE.match(message):
            frame = _FRAME_RE.match(message)
            frames.append(frame.group("cls"))
        else:
            exc = _EXC_RE.match(message)
            if exc and not chain:
                chain.append(exc.group("cls"))
                messages.append(exc.group("msg") or "")
        j += 1
    if chain:
        events.append(
            FatalExceptionEvent(
                time_ms=line.time_ms,
                process=process,
                pid=pid,
                exception_chain=chain,
                messages=messages,
                frames=frames,
            )
        )
    return j - i


def _try_anr_block(lines: Sequence[LogLine], i: int, events: List[LogEvent]) -> int:
    line = lines[i]
    if line.tag != "ActivityManager":
        return 0
    match = _ANR_RE.match(line.message)
    if match is None:
        return 0
    reason = ""
    j = i + 1
    while j < len(lines) and lines[j].tag == "ActivityManager" and j - i < 4:
        if lines[j].message.startswith("Reason: "):
            reason = lines[j].message[len("Reason: "):]
        j += 1
    events.append(
        AnrEvent(
            time_ms=line.time_ms,
            process=match.group("process"),
            component=match.group("component"),
            reason=reason,
        )
    )
    return j - i


def _try_single_line(line: LogLine, events: List[LogEvent]) -> int:
    message = line.message
    reboot = _REBOOT_RE.match(message)
    if reboot:
        events.append(RebootEvent(time_ms=line.time_ms, reason=reboot.group("reason")))
        return 1
    native = _NATIVE_RE.match(message)
    if native:
        events.append(
            NativeSignalEvent(
                time_ms=line.time_ms,
                signal=native.group("signal"),
                number=int(native.group("number")),
                process=native.group("process"),
                reason=native.group("reason") or "",
            )
        )
        return 1
    if line.tag == "ActivityManager" and "SecurityException: Permission Denial:" in message:
        detail = message.split("Permission Denial:", 1)[1].strip()
        cmp_match = _CMP_RE.search(message)
        component = None
        if cmp_match:
            component = _expand_component(cmp_match.group("cmp"))
        else:
            component = _component_from_denial(detail)
        events.append(
            SecurityDenialEvent(time_ms=line.time_ms, detail=detail, component=component)
        )
        return 1
    if line.level in ("W", "E") and _names_exception(message):
        found = _EXC_RE.search(message)
        if found and not message.startswith(("Caused by",)):
            events.append(
                HandledExceptionEvent(
                    time_ms=line.time_ms,
                    pid=line.pid,
                    tag=line.tag,
                    exception_class=found.group("cls"),
                    message=found.group("msg"),
                    frames=[],
                )
            )
            return 1
    return 0


def _expand_component(short: str) -> str:
    """Expand ``pkg/.Cls`` to ``pkg/pkg.Cls``."""
    package, _, cls = short.partition("/")
    if cls.startswith("."):
        cls = package + cls
    return f"{package}/{cls}"


def _component_from_denial(detail: str) -> Optional[str]:
    """Pull a target component out of a denial detail, if present."""
    match = _DENIAL_TO_RE.search(detail)
    if match:
        return _expand_component(match.group(1))
    return None


def attach_handled_frames(text: str, events: List[LogEvent]) -> None:
    """Second pass: attach ``at Class.method(...)`` frame hints to handled
    exceptions, matching by pid and adjacency in the raw text.

    Handled-exception warnings are logged as a small block -- the exception
    line followed by a few frame lines under the same tag/pid.  The frames
    carry the throwing component's class, which the classifier needs for
    attribution.  The lines are the ones :func:`parse_events` tokenised
    from the same *text*; a text with no handled exception is not read.
    """
    global _last_parse
    parsed_text, lines = _last_parse
    _last_parse = (None, [])
    by_key = {}
    for event in events:
        if isinstance(event, HandledExceptionEvent):
            by_key.setdefault((event.pid, event.exception_class), []).append(event)
    if not by_key:
        return
    if parsed_text is not text:
        lines = list(parse_lines(text))
    pending: Optional[HandledExceptionEvent] = None
    queue_index = {}
    for line in lines:
        message = line.message
        if pending is not None and line.pid == pending.pid:
            frame = _FRAME_RE.match(message)
            if frame is not None:
                pending.frames.append(frame.group("cls"))
                continue
        pending = None
        if line.level not in ("W", "E") or not _names_exception(message):
            continue
        found = _EXC_CLASS_RE.search(message)
        if found:
            key = (line.pid, found.group("cls"))
            queue = by_key.get(key)
            if queue:
                index = queue_index.get(key, 0)
                if index < len(queue):
                    pending = queue[index]
                    queue_index[key] = index + 1

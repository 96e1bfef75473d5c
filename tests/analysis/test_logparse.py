"""Tests for the logcat parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    NativeSignalEvent,
    RebootEvent,
    SecurityDenialEvent,
    attach_handled_frames,
    parse_events,
    parse_lines,
)
from repro.android.clock import Clock
from repro.android.jtypes import (
    IllegalArgumentException,
    NullPointerException,
    THROWABLE_CLASSES,
    RuntimeException,
    frame,
    sigabrt,
    sigsegv,
    throwable_from_name,
)
from repro.android.log import Logcat


@pytest.fixture()
def logcat():
    return Logcat(Clock())


def events_of(logcat, kind=None):
    events = parse_events(logcat.dump())
    if kind is None:
        return events
    return [e for e in events if isinstance(e, kind)]


class TestLineParsing:
    def test_round_trip_basic_line(self, logcat):
        logcat.i("MyTag", "hello world", pid=42)
        lines = list(parse_lines(logcat.dump()))
        assert len(lines) == 1
        assert lines[0].tag == "MyTag"
        assert lines[0].pid == 42
        assert lines[0].message == "hello world"
        assert lines[0].level == "I"

    def test_time_round_trip(self):
        clock = Clock()
        logcat = Logcat(clock)
        clock.sleep(3_723_456)  # 1h 2m 3.456s
        logcat.i("T", "x")
        line = next(parse_lines(logcat.dump()))
        assert line.time_ms == pytest.approx(3_723_456)

    def test_garbage_lines_skipped(self):
        assert list(parse_lines("not a log line\n\nanother one")) == []

    @given(st.text(max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_parser_total(self, text):
        parse_events(text)  # must never raise


class TestFatalBlocks:
    def test_simple_fatal(self, logcat):
        exc = NullPointerException("null deref")
        exc.frames = [frame("com.a.MainActivity", "onCreate", 10)]
        exc.with_frames(exc.frames, "activity")
        logcat.fatal_exception("com.a", 77, exc)
        events = events_of(logcat, FatalExceptionEvent)
        assert len(events) == 1
        event = events[0]
        assert event.process == "com.a"
        assert event.pid == 77
        assert event.exception_chain == ["java.lang.NullPointerException"]
        assert "com.a.MainActivity" in event.frames

    def test_cause_chain_order(self, logcat):
        inner = NullPointerException("inner")
        inner.frames = [frame("com.a.Helper", "work", 5)]
        outer = RuntimeException("Unable to start activity", cause=inner)
        outer.frames = [frame("android.app.ActivityThread", "performLaunchActivity", 2778)]
        logcat.fatal_exception("com.a", 5, outer)
        event = events_of(logcat, FatalExceptionEvent)[0]
        assert event.exception_chain == [
            "java.lang.RuntimeException",
            "java.lang.NullPointerException",
        ]
        assert event.outer_class == "java.lang.RuntimeException"
        assert event.root_class == "java.lang.NullPointerException"

    def test_two_fatal_blocks(self, logcat):
        for i in range(2):
            exc = NullPointerException(f"crash {i}")
            exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
            logcat.fatal_exception("com.a", 77, exc)
        assert len(events_of(logcat, FatalExceptionEvent)) == 2

    def test_fatal_messages_captured(self, logcat):
        exc = IllegalArgumentException("bad uri scheme")
        exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
        logcat.fatal_exception("com.a", 1, exc)
        event = events_of(logcat, FatalExceptionEvent)[0]
        assert event.messages[0] == "bad uri scheme"


class TestOtherEvents:
    def test_anr(self, logcat):
        logcat.anr("com.a", 5, "com.a/.Main", "blocked 9000ms")
        events = events_of(logcat, AnrEvent)
        assert len(events) == 1
        assert events[0].process == "com.a"
        assert events[0].component == "com.a/.Main"
        assert events[0].reason == "blocked 9000ms"

    def test_security_denial_with_component(self, logcat):
        logcat.security_denial(
            0, "broadcasting protected action X from com.qgj to com.a/.Main"
        )
        events = events_of(logcat, SecurityDenialEvent)
        assert len(events) == 1
        assert events[0].component == "com.a/com.a.Main"

    def test_security_denial_with_cmp_string(self, logcat):
        logcat.security_denial(
            0,
            "starting Intent { act=x cmp=com.a/.Main } from com.qgj not exported",
        )
        events = events_of(logcat, SecurityDenialEvent)
        assert events[0].component == "com.a/com.a.Main"

    def test_native_signal(self, logcat):
        logcat.native_crash(sigabrt("/system/lib/libsensorservice.so", "wedged"), pid=3)
        events = events_of(logcat, NativeSignalEvent)
        assert len(events) == 1
        assert events[0].signal == "SIGABRT"
        assert events[0].number == 6
        assert "libsensorservice" in events[0].process

    def test_reboot_marker(self, logcat):
        logcat.reboot_marker("aging collapse")
        events = events_of(logcat, RebootEvent)
        assert len(events) == 1
        assert events[0].reason == "aging collapse"

    def test_handled_exception(self, logcat):
        exc = IllegalArgumentException("rejected")
        exc.frames = [frame("com.a.SyncService", "validateIntent", 31)]
        logcat.handled_exception("AppTag", 9, exc, context="rejected intent")
        events = events_of(logcat, HandledExceptionEvent)
        assert len(events) == 1
        assert events[0].exception_class == "java.lang.IllegalArgumentException"

    def test_attach_handled_frames(self, logcat):
        exc = IllegalArgumentException("rejected")
        exc.frames = [frame("com.a.SyncService", "validateIntent", 31)]
        logcat.handled_exception("AppTag", 9, exc, context="rejected intent")
        text = logcat.dump()
        events = parse_events(text)
        attach_handled_frames(text, events)
        handled = [e for e in events if isinstance(e, HandledExceptionEvent)][0]
        assert "com.a.SyncService" in handled.frames

    def test_attach_frames_separates_same_class_blocks(self, logcat):
        for cls_name in ("com.a.One", "com.a.Two"):
            exc = IllegalArgumentException("rejected")
            exc.frames = [frame(cls_name, "validate", 1)]
            logcat.handled_exception("AppTag", 9, exc)
        text = logcat.dump()
        events = parse_events(text)
        attach_handled_frames(text, events)
        handled = [e for e in events if isinstance(e, HandledExceptionEvent)]
        assert handled[0].frames[0] == "com.a.One"
        assert handled[1].frames[0] == "com.a.Two"

    def test_security_exception_in_warning_not_double_counted(self, logcat):
        logcat.security_denial(0, "broadcasting protected action X to com.a/.Main")
        events = events_of(logcat)
        assert len([e for e in events if isinstance(e, SecurityDenialEvent)]) == 1
        assert len([e for e in events if isinstance(e, HandledExceptionEvent)]) == 0


class TestMixedStream:
    def test_interleaved_events(self, logcat):
        exc = NullPointerException("x")
        exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
        logcat.i("ActivityManager", "START u0 {Intent { act=a cmp=com.a/.Main }} from com.a")
        logcat.fatal_exception("com.a", 7, exc)
        logcat.anr("com.b", 8, "com.b/.Svc", "slow")
        logcat.reboot_marker("test")
        events = events_of(logcat)
        kinds = [type(e).__name__ for e in events]
        assert kinds == ["FatalExceptionEvent", "AnrEvent", "RebootEvent"]


# -- round trip: every framework writer's grammar back to its event -------------

#: Every registered class the exception grammar names.  The bare
#: ``java.lang.Exception`` is not one: the grammar wants a CamelCase prefix
#: before the ``Exception``/``Error`` suffix, and no app model raises it.
_EXCEPTIONS = sorted(
    name for name in THROWABLE_CLASSES
    if name.endswith(("Exception", "Error")) and name.rsplit(".", 1)[1] not in ("Exception", "Error")
)
_FRAME_CLASSES = (
    "com.a.MainActivity",
    "com.runmate.wear.sync.SyncService",
    "com.b.Outer$Inner",
    "android.app.ActivityThread",
)
_PACKAGES = ("com.a", "com.runmate.wear", "com.cardiowatch.wear")
_APP_TAGS = ("AppTag", "SyncWorker", "HeartRate")
#: Free text with neither "Exception" nor "Error" in it (no capital E), and no
#: character any grammar keys on.
_PLAIN = st.text(alphabet="abcdfghijklmnopqrstuvwxyz ABCDFGHIJK0123456789_", max_size=30)
_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
#: Long W/E lines with no exception in them, shaped like dotted package names
#: so the exception-class search has something to backtrack over.
_NOISE = st.lists(
    st.lists(_words, min_size=2, max_size=6).map(".".join), min_size=1, max_size=4
).map(" ".join).map(lambda text: " ".join([text] * (301 // len(text) + 1)))


@st.composite
def _throwable(draw, depth=1):
    cls = throwable_from_name(draw(st.sampled_from(_EXCEPTIONS)), draw(st.none() | _PLAIN))
    cls.frames = [
        frame(draw(st.sampled_from(_FRAME_CLASSES)), draw(_words), draw(st.integers(1, 999)))
        for _ in range(draw(st.integers(0, 5)))
    ]
    if depth < 3 and draw(st.booleans()):
        cls.cause = draw(_throwable(depth=depth + 1))
    return cls


def _chain(throwable):
    return list(throwable.cause_chain())


def _write_fatal(logcat, now, pid, data):
    throwable = data.draw(_throwable())
    process = data.draw(st.sampled_from(_PACKAGES))
    logcat.fatal_exception(process, pid, throwable)
    return FatalExceptionEvent(
        time_ms=now,
        process=process,
        pid=pid,
        exception_chain=[t.JAVA_NAME for t in _chain(throwable)],
        messages=[t.message or "" for t in _chain(throwable)],
        frames=[f.class_name for t in _chain(throwable) for f in t.frames],
    )


def _write_handled(logcat, now, pid, data):
    throwable = data.draw(_throwable(depth=3))
    tag = data.draw(st.sampled_from(_APP_TAGS))
    context = data.draw(st.text(alphabet="abcdfghij ", max_size=12).map(str.strip))
    logcat.handled_exception(tag, pid, throwable, context=context)
    return HandledExceptionEvent(
        time_ms=now,
        pid=pid,
        tag=tag,
        exception_class=throwable.JAVA_NAME,
        message=throwable.message,
        frames=[f.class_name for f in throwable.frames[:4]],
    )


def _write_denial(logcat, now, pid, data):
    package = data.draw(st.sampled_from(_PACKAGES))
    cls = data.draw(st.sampled_from(("Main", "SyncService", "Outer$Inner")))
    short = data.draw(st.sampled_from((f"{package}/.{cls}", f"{package}/{package}.{cls}")))
    if data.draw(st.booleans()):
        detail = f"starting Intent {{ act={data.draw(_words)} cmp={short} }} from com.qgj not exported"
    else:
        detail = f"broadcasting protected action {data.draw(_words)} from com.qgj to {short}"
    logcat.security_denial(pid, detail)
    return SecurityDenialEvent(
        time_ms=now, detail=detail, component=f"{package}/{package}.{cls}"
    )


def _write_anr(logcat, now, pid, data):
    process = data.draw(st.sampled_from(_PACKAGES))
    component = f"{process}/.{data.draw(st.sampled_from(('Main', 'Svc')))}"
    reason = data.draw(_PLAIN)
    logcat.anr(process, pid, component, reason)
    return AnrEvent(
        time_ms=now, process=process, component=component, reason=reason
    )


def _write_native(logcat, now, pid, data):
    signal = data.draw(st.sampled_from((sigabrt, sigsegv)))(
        data.draw(st.sampled_from(("/system/lib/libsensorservice.so", "system_server"))),
        data.draw(_PLAIN.map(str.strip)),
    )
    logcat.native_crash(signal, pid=pid)
    return NativeSignalEvent(
        time_ms=now,
        signal=signal.signal,
        number=signal.number,
        process=signal.process,
        reason=signal.reason,
    )


def _write_reboot(logcat, now, pid, data):
    reason = data.draw(_PLAIN)
    logcat.reboot_marker(reason)
    return RebootEvent(time_ms=now, reason=reason)


_WRITERS = (_write_fatal, _write_handled, _write_denial, _write_anr, _write_native, _write_reboot)


class TestRoundTrip:
    """``parse_events`` + ``attach_handled_frames`` invert every writer.

    Two known limits of the grammars shape the streams.  Each event gets
    its own pid: the frame attacher pairs any W/E line naming a handled
    event's exception class and pid with that event, so a FATAL block of
    the same pid and class ahead of it would lend it the crash's frames.
    An ANR is always followed by a non-ActivityManager line: the ANR block
    scanner reads up to three lines past ``ANR in``, one more than the
    writer emits, so an ActivityManager event right after it is absorbed.
    """

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_writers_round_trip(self, data):
        clock = Clock()
        logcat = Logcat(clock)
        writers = data.draw(st.lists(st.sampled_from(_WRITERS), max_size=8))
        pids = data.draw(
            st.lists(st.integers(1, 32767), min_size=len(writers), max_size=len(writers), unique=True)
        )
        expected = []
        for writer, pid in zip(writers, pids):
            clock.sleep(data.draw(st.integers(0, 90_000_000)))
            expected.append(writer(logcat, clock.now_ms(), pid, data))
            if writer is _write_anr or data.draw(st.booleans()):
                level = data.draw(st.sampled_from((logcat.w, logcat.e)))
                level(data.draw(st.sampled_from(_APP_TAGS)), data.draw(_NOISE), pid=pid)
        text = logcat.dump()
        events = parse_events(text)
        attach_handled_frames(text, events)
        assert events == expected

    def test_noise_lines_are_long_and_exception_free(self):
        @given(_NOISE)
        @settings(max_examples=20, deadline=None)
        def check(text):
            assert len(text) > 300
            assert "Exception" not in text and "Error" not in text

        check()

#include "sim/trace.h"

#include "sim/event_queue.h"

namespace widir::sim {

namespace {
// Thread-local, not global: each sys::SweepRunner worker runs its own
// simulator, and warn() must land in that simulator's trace.
thread_local Tracer *t_active = nullptr;
} // namespace

Tracer *
Tracer::setThreadActive(Tracer *tracer)
{
    Tracer *prev = t_active;
    t_active = tracer;
    return prev;
}

Tracer *
Tracer::threadActive()
{
    return t_active;
}

Tick
Tracer::clockNow() const
{
    return clock_ ? clock_->now() : 0;
}

const char *
traceComponentName(TraceComponent c)
{
    switch (c) {
      case TraceComponent::L1: return "L1";
      case TraceComponent::Directory: return "Directory";
      case TraceComponent::DataChannel: return "DataChannel";
      case TraceComponent::ToneChannel: return "ToneChannel";
      case TraceComponent::Mesh: return "Mesh";
      case TraceComponent::Core: return "Core";
      case TraceComponent::Log: return "Log";
    }
    return "?";
}

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::MsgSend: return "MsgSend";
      case TraceKind::MsgRecv: return "MsgRecv";
      case TraceKind::L1Transition: return "L1Transition";
      case TraceKind::DirTransition: return "DirTransition";
      case TraceKind::MshrAlloc: return "MshrAlloc";
      case TraceKind::MshrRetire: return "MshrRetire";
      case TraceKind::DirTxnBegin: return "DirTxnBegin";
      case TraceKind::DirTxnEnd: return "DirTxnEnd";
      case TraceKind::FrameQueued: return "FrameQueued";
      case TraceKind::FrameWin: return "FrameWin";
      case TraceKind::FrameCollision: return "FrameCollision";
      case TraceKind::FrameJammed: return "FrameJammed";
      case TraceKind::FrameDelivered: return "FrameDelivered";
      case TraceKind::FrameCancelled: return "FrameCancelled";
      case TraceKind::ToneCensusBegin: return "ToneCensusBegin";
      case TraceKind::ToneCensusEnd: return "ToneCensusEnd";
      case TraceKind::NocSend: return "NocSend";
      case TraceKind::CoreOp: return "CoreOp";
      case TraceKind::Warn: return "Warn";
      case TraceKind::FrameCrcError: return "FrameCrcError";
      case TraceKind::FramePreambleLoss: return "FramePreambleLoss";
      case TraceKind::ToneRetry: return "ToneRetry";
    }
    return "?";
}

} // namespace widir::sim

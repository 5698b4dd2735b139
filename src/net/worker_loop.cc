#include "src/net/worker_loop.h"

#include <unistd.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/fragment_context.h"
#include "src/engine/site_runtime.h"
#include "src/net/transport.h"
#include "src/util/serialization.h"
#include "src/util/status.h"
#include "src/util/timer.h"

namespace pereach {

namespace {

Status SendOkReply(int fd, double compute_ms,
                   const std::vector<uint8_t>& payload) {
  Encoder body;
  body.PutU8(1);
  body.PutDouble(compute_ms);
  body.PutVarint(payload.size());
  body.PutRaw(payload);
  return WriteWireMessage(fd, body.buffer(), /*timeout_ms=*/-1);
}

Status SendErrorReply(int fd, const Status& error) {
  Encoder body;
  body.PutU8(0);
  body.PutString(error.ToString());
  return WriteWireMessage(fd, body.buffer(), /*timeout_ms=*/-1);
}

/// Decodes the fragment bytes that follow the fixed head of a kHello/kSync
/// body. The CRC already vouched for transport integrity, so a decode
/// failure here means a software (encoding) mismatch — still reported as a
/// reply, not an abort.
Result<Fragment> DecodeFragmentTail(const std::vector<uint8_t>& body,
                                    size_t offset) {
  Decoder dec(body.data() + offset, body.size() - offset,
              Decoder::OnError::kStatus);
  Fragment f = Fragment::Deserialize(&dec);
  if (!dec.ok()) return dec.status();
  if (!dec.Done()) {
    return Status::Corruption("worker: trailing bytes after fragment");
  }
  return f;
}

}  // namespace

void ServeConnection(int fd) {
  const size_t max_frame_bytes = TransportOptions{}.max_frame_bytes;
  std::optional<Fragment> fragment;
  std::unique_ptr<FragmentContext> ctx;

  for (;;) {
    std::vector<uint8_t> body;
    // Workers block indefinitely between requests; deadlines are the
    // coordinator's job. EOF (coordinator gone) or framing corruption ends
    // the connection.
    if (!ReadWireMessage(fd, /*timeout_ms=*/-1, max_frame_bytes, &body).ok()) {
      break;
    }

    // Each request resolves to exactly one reply: either an ok envelope
    // (compute time + payload) or an error envelope carrying the status.
    // A malformed request is an ERROR REPLY, never a worker abort — the
    // connection stays up and the next request is served normally.
    std::optional<std::pair<double, std::vector<uint8_t>>> ok_reply;
    Status reply_status = Status::OK();
    bool shutdown = false;

    Decoder dec(body, Decoder::OnError::kStatus);
    const uint8_t type = dec.GetU8();
    if (!dec.ok()) {
      reply_status = Status::Corruption("worker: empty message");
    } else {
      switch (type) {
        case static_cast<uint8_t>(WireMessage::kHello):
        case static_cast<uint8_t>(WireMessage::kSync): {
          if (type == static_cast<uint8_t>(WireMessage::kHello)) {
            const uint8_t version = dec.GetU8();
            (void)dec.GetVarint();  // site id: diagnostic only
            if (!dec.ok()) {
              reply_status = dec.status();
              break;
            }
            if (version != kWireVersion) {
              reply_status = Status::InvalidArgument(
                  "worker: wire version mismatch: got " +
                  std::to_string(version) + ", want " +
                  std::to_string(kWireVersion));
              break;
            }
          } else if (!fragment.has_value()) {
            reply_status = Status::InvalidArgument("worker: sync before hello");
            break;
          }
          StopWatch watch;
          Result<Fragment> f = DecodeFragmentTail(body, dec.position());
          if (!f.ok()) {
            reply_status = f.status();
            break;
          }
          fragment.emplace(std::move(f).value());
          ctx = std::make_unique<FragmentContext>();
          ok_reply.emplace(watch.ElapsedMs(), std::vector<uint8_t>{});
          break;
        }
        case static_cast<uint8_t>(WireMessage::kRound): {
          const uint8_t kind = dec.GetU8();
          const uint8_t aux = dec.GetU8();
          if (!dec.ok()) {
            reply_status = dec.status();
            break;
          }
          if (!fragment.has_value()) {
            reply_status =
                Status::InvalidArgument("worker: round before hello");
            break;
          }
          const std::vector<uint8_t> broadcast(
              body.begin() + static_cast<ptrdiff_t>(dec.position()),
              body.end());
          StopWatch watch;
          Result<std::vector<uint8_t>> r =
              RunSiteRound(*fragment, ctx.get(), static_cast<RoundKind>(kind),
                           aux, broadcast);
          const double compute_ms = watch.ElapsedMs();
          if (!r.ok()) {
            reply_status = r.status();
            break;
          }
          ok_reply.emplace(compute_ms, std::move(r).value());
          break;
        }
        case static_cast<uint8_t>(WireMessage::kShutdown):
          shutdown = true;
          break;
        default:
          reply_status = Status::Corruption("worker: unknown message type");
          break;
      }
    }

    if (shutdown) {
      (void)SendOkReply(fd, 0.0, {});
      break;
    }
    const Status sent = ok_reply.has_value()
                            ? SendOkReply(fd, ok_reply->first, ok_reply->second)
                            : SendErrorReply(fd, reply_status);
    if (!sent.ok()) break;
  }
  ::close(fd);
}

}  // namespace pereach

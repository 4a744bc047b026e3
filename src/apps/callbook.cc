#include "src/apps/callbook.h"

#include <algorithm>

namespace upr {

namespace {

void WriteString(ByteWriter* w, const std::string& s) {
  w->WriteU8(static_cast<std::uint8_t>(s.size()));
  w->WriteBytes(BytesFromString(s));
}

// One opcode byte followed by the callsign's characters, built at its final
// size: growing it by push_back then insert draws a false -Warray-bounds
// from GCC 12 at -O3.
Bytes OpWithCallsign(std::uint8_t op, const std::string& callsign) {
  Bytes out(1 + callsign.size(), op);
  std::copy(callsign.begin(), callsign.end(), out.begin() + 1);
  return out;
}

std::optional<std::string> ReadString(ByteReader* r) {
  std::uint8_t len = r->ReadU8();
  Bytes raw = r->ReadBytes(len);
  if (!r->ok()) {
    return std::nullopt;
  }
  return std::string(raw.begin(), raw.end());
}

constexpr std::uint8_t kOpQuery = '?';
constexpr std::uint8_t kOpFound = '!';
constexpr std::uint8_t kOpNotFound = '~';

}  // namespace

Bytes CallbookEntry::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  WriteString(&w, callsign);
  WriteString(&w, name);
  WriteString(&w, city);
  WriteString(&w, grid);
  return out;
}

std::optional<CallbookEntry> CallbookEntry::Decode(const Bytes& wire) {
  ByteReader r(wire);
  CallbookEntry e;
  auto callsign = ReadString(&r);
  auto name = ReadString(&r);
  auto city = ReadString(&r);
  auto grid = ReadString(&r);
  if (!callsign || !name || !city || !grid) {
    return std::nullopt;
  }
  e.callsign = *callsign;
  e.name = *name;
  e.city = *city;
  e.grid = *grid;
  return e;
}

std::optional<char> CallsignRegion(const std::string& callsign) {
  // US-style: prefix letters, then the district digit. Use the first digit
  // appearing after at least one letter.
  bool seen_letter = false;
  for (char c : callsign) {
    if (c >= 'A' && c <= 'Z') {
      seen_letter = true;
    } else if (c >= '0' && c <= '9' && seen_letter) {
      return c;
    }
  }
  return std::nullopt;
}

CallbookServer::CallbookServer(Udp* udp, std::uint16_t port)
    : udp_(udp), port_(port) {
  udp_->Bind(port_, [this](IpV4Address src, std::uint16_t sport, const Bytes& data) {
    OnQuery(src, sport, data);
  });
}

void CallbookServer::AddEntry(CallbookEntry entry) {
  entries_[entry.callsign] = std::move(entry);
}

void CallbookServer::OnQuery(IpV4Address src, std::uint16_t sport, const Bytes& data) {
  if (data.size() < 2 || data[0] != kOpQuery) {
    return;
  }
  std::string callsign(data.begin() + 1, data.end());
  auto it = entries_.find(callsign);
  Bytes reply;
  if (it == entries_.end()) {
    ++misses_;
    reply = OpWithCallsign(kOpNotFound, callsign);
  } else {
    ++served_;
    reply.push_back(kOpFound);
    Bytes body = it->second.Encode();
    reply.insert(reply.end(), body.begin(), body.end());
  }
  udp_->SendTo(src, sport, port_, reply);
}

CallbookClient::CallbookClient(Simulator* sim, Udp* udp, std::uint16_t local_port)
    : sim_(sim), udp_(udp), local_port_(local_port) {
  udp_->Bind(local_port_, [this](IpV4Address src, std::uint16_t sport,
                                 const Bytes& data) { OnReply(src, sport, data); });
}

void CallbookClient::AddRegionServer(char region, IpV4Address server) {
  regions_[region] = server;
}

void CallbookClient::Query(const std::string& callsign, QueryHandler handler,
                           SimTime timeout, int retries) {
  auto region = CallsignRegion(callsign);
  if (!region) {
    handler(std::nullopt);
    return;
  }
  auto rit = regions_.find(*region);
  if (rit == regions_.end()) {
    handler(std::nullopt);
    return;
  }
  auto p = std::make_unique<Pending>();
  Pending* raw = p.get();
  raw->handler = std::move(handler);
  raw->server = rit->second;
  raw->callsign = callsign;
  raw->retries_left = retries;
  raw->retry_delay = timeout / (retries > 0 ? retries : 1);
  raw->timer = std::make_unique<Timer>(sim_, [this, raw] {
    if (raw->retries_left-- > 0) {
      SendQuery(raw);
      raw->timer->Restart(raw->retry_delay);
    } else {
      ++timeouts_;
      QueryHandler h = std::move(raw->handler);
      pending_.erase(raw->callsign);
      h(std::nullopt);
    }
  });
  pending_[callsign] = std::move(p);
  --raw->retries_left;
  SendQuery(raw);
  raw->timer->Restart(raw->retry_delay);
}

void CallbookClient::SendQuery(Pending* p) {
  ++sent_;
  udp_->SendTo(p->server, kCallbookPort, local_port_,
               OpWithCallsign(kOpQuery, p->callsign));
}

void CallbookClient::OnReply(IpV4Address src, std::uint16_t sport, const Bytes& data) {
  if (data.empty()) {
    return;
  }
  if (data[0] == kOpFound) {
    auto entry = CallbookEntry::Decode(Bytes(data.begin() + 1, data.end()));
    if (!entry) {
      return;
    }
    auto it = pending_.find(entry->callsign);
    if (it == pending_.end()) {
      return;
    }
    QueryHandler h = std::move(it->second->handler);
    pending_.erase(it);
    h(*entry);
  } else if (data[0] == kOpNotFound) {
    std::string callsign(data.begin() + 1, data.end());
    auto it = pending_.find(callsign);
    if (it == pending_.end()) {
      return;
    }
    QueryHandler h = std::move(it->second->handler);
    pending_.erase(it);
    h(std::nullopt);
  }
}

}  // namespace upr

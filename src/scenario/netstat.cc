#include "src/scenario/netstat.h"

#include <cstdarg>
#include <cstdio>

#include "src/gateway/gateway.h"

namespace upr {

namespace {

std::string Sprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Sprintf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

std::string FormatInterfaces(const NetStack& stack) {
  std::string out = Sprintf("%-6s %-18s %5s %8s %8s %6s %6s %6s\n", "Name", "Address",
                            "Mtu", "Ipkts", "Opkts", "Ierrs", "Oerrs", "Drops");
  for (const auto& i : stack.interfaces()) {
    const InterfaceStats& s = i->stats();
    out += Sprintf("%-6s %-18s %5zu %8llu %8llu %6llu %6llu %6llu%s\n",
                   i->name().c_str(),
                   (i->address().ToString() + "/" +
                    std::to_string(i->prefix().PrefixLength()))
                       .c_str(),
                   i->mtu(), static_cast<unsigned long long>(s.ipackets),
                   static_cast<unsigned long long>(s.opackets),
                   static_cast<unsigned long long>(s.ierrors),
                   static_cast<unsigned long long>(s.oerrors),
                   static_cast<unsigned long long>(s.odrops),
                   i->up() ? "" : "  (down)");
  }
  return out;
}

std::string FormatRoutes(const NetStack& stack) {
  std::string out =
      Sprintf("%-20s %-16s %-6s %-8s %s\n", "Destination", "Gateway", "Flags",
              "Metric", "Interface");
  for (const auto& r : stack.routes().routes()) {
    std::string flags = "U";
    if (r.gateway) {
      flags += "G";
    }
    if (r.prefix.PrefixLength() == 32) {
      flags += "H";
    }
    out += Sprintf("%-20s %-16s %-6s %-8d %s\n", r.prefix.ToString().c_str(),
                   r.gateway ? r.gateway->ToString().c_str() : "*", flags.c_str(),
                   r.metric, r.interface ? r.interface->name().c_str() : "-");
  }
  return out;
}

std::string FormatIpStats(const NetStack& stack) {
  const IpStats& s = stack.ip_stats();
  std::string out;
  out += Sprintf("ip: %llu delivered, %llu sent, %llu forwarded\n",
                 static_cast<unsigned long long>(s.delivered),
                 static_cast<unsigned long long>(s.sent),
                 static_cast<unsigned long long>(s.forwarded));
  out += Sprintf("    %llu input-queue drops, %llu header errors, %llu no-route, "
                 "%llu ttl-expired, %llu filtered\n",
                 static_cast<unsigned long long>(s.input_drops),
                 static_cast<unsigned long long>(s.header_errors),
                 static_cast<unsigned long long>(s.no_route),
                 static_cast<unsigned long long>(s.ttl_expired),
                 static_cast<unsigned long long>(s.filtered));
  out += Sprintf("    fragments: %llu created, %llu received, %llu reassembled, "
                 "%llu failures, %llu cant-fragment\n",
                 static_cast<unsigned long long>(s.fragments_created),
                 static_cast<unsigned long long>(s.fragments_received),
                 static_cast<unsigned long long>(s.reassembled),
                 static_cast<unsigned long long>(s.reassembly_failures),
                 static_cast<unsigned long long>(s.cant_fragment));
  return out;
}

std::string FormatGateway(PacketRadioGateway& gateway) {
  std::string out;
  out += Sprintf("gateway: %llu radio->wire, %llu wire->radio, %llu denied\n",
                 static_cast<unsigned long long>(gateway.radio_to_wire()),
                 static_cast<unsigned long long>(gateway.wire_to_radio()),
                 static_cast<unsigned long long>(gateway.denied()));
  out += Sprintf("control: %llu accepted, %llu rejected\n",
                 static_cast<unsigned long long>(gateway.control_accepted()),
                 static_cast<unsigned long long>(gateway.control_rejected()));
  out += Sprintf("access table: %zu live entries (%llu created, %llu expired, "
                 "%llu denials)\n",
                 gateway.table().size(),
                 static_cast<unsigned long long>(gateway.table().entries_created()),
                 static_cast<unsigned long long>(gateway.table().entries_expired()),
                 static_cast<unsigned long long>(gateway.table().denials()));
  return out;
}

std::string FormatSerial(const SerialLine& line, const std::string& name) {
  auto side = [](const char* tag, const SerialEndpoint& e) {
    return Sprintf("  %s: %llu sent, %llu rcvd, %llu events, %.2f bytes/event, "
                   "%llu overruns (%llu bytes dropped), backlog %llu\n",
                   tag, static_cast<unsigned long long>(e.bytes_sent()),
                   static_cast<unsigned long long>(e.bytes_received()),
                   static_cast<unsigned long long>(e.events_scheduled()),
                   e.bytes_per_event(),
                   static_cast<unsigned long long>(e.overruns()),
                   static_cast<unsigned long long>(e.bytes_dropped()),
                   static_cast<unsigned long long>(e.backlog()));
  };
  const SerialLineConfig& cfg = line.config();
  const bool silo = cfg.silo_depth > 1;
  std::string out = Sprintf("serial %s: %u baud, %s mode", name.c_str(),
                            cfg.baud_rate, silo ? "silo" : "per-byte");
  if (silo) {
    out += Sprintf(" (depth %zu, alarm %.1f ms)", cfg.silo_depth,
                   ToMillis(cfg.silo_timeout));
  }
  out += "\n";
  out += side("a", line.a());
  out += side("b", line.b());
  return out;
}

std::string FormatTnc(const KissTnc& tnc, const std::string& name) {
  const MacParams& m = tnc.mac_params();
  std::string out = Sprintf(
      "tnc %s: kiss mode %s, txdelay %.0f ms, p %.2f, slottime %.0f ms, "
      "txtail %.0f ms, %s duplex\n",
      name.c_str(), tnc.in_kiss_mode() ? "on" : "off", ToMillis(m.tx_delay),
      m.persistence, ToMillis(m.slot_time), ToMillis(m.tx_tail),
      m.full_duplex ? "full" : "half");
  out += Sprintf(
      "  param updates %llu (last at %.3f s), empty-param errors %llu, "
      "returns %llu, resyncs %llu\n",
      static_cast<unsigned long long>(tnc.param_updates()),
      ToSeconds(tnc.last_param_update()),
      static_cast<unsigned long long>(tnc.param_errors()),
      static_cast<unsigned long long>(tnc.return_commands()),
      static_cast<unsigned long long>(tnc.kiss_resyncs()));
  out += Sprintf(
      "  frames host->radio %llu, radio->host %llu, filtered %llu, "
      "fcs errors %llu\n",
      static_cast<unsigned long long>(tnc.frames_from_host()),
      static_cast<unsigned long long>(tnc.frames_to_host()),
      static_cast<unsigned long long>(tnc.frames_filtered()),
      static_cast<unsigned long long>(tnc.fcs_errors()));
  return out;
}

std::string FormatDriverStats(const PacketRadioInterface& driver) {
  const DriverStats& d = driver.driver_stats();
  const KissDecoder& k = driver.kiss_decoder();
  std::string out =
      Sprintf("driver %s: %llu interrupts, %llu chars, %.2f chars/interrupt, "
              "%.1f ms interrupt cpu, %llu frames in, %llu output drops\n",
              driver.name().c_str(),
              static_cast<unsigned long long>(d.interrupts),
              static_cast<unsigned long long>(d.chars_in),
              driver.chars_per_interrupt(), ToMillis(d.interrupt_cpu_time),
              static_cast<unsigned long long>(d.frames_in),
              static_cast<unsigned long long>(d.output_drops));
  out += Sprintf("  kiss: %llu frames decoded, %llu bad_escape, "
                 "%llu oversize drops\n",
                 static_cast<unsigned long long>(k.frames_decoded()),
                 static_cast<unsigned long long>(k.bad_escapes()),
                 static_cast<unsigned long long>(k.oversize_drops()));
  return out;
}

std::string FormatAx25Link(const Ax25Link& link, const std::string& name) {
  const Ax25LinkStats& s = link.stats();
  std::string out = Sprintf(
      "ax25 %s (%s): %llu xid sent, %llu xid rcvd, %llu bad xid, "
      "%llu srej sent, "
      "%llu srej rcvd, %llu downgrades, %llu mod128 links\n",
      name.c_str(), link.local_address().ToString().c_str(),
      static_cast<unsigned long long>(s.xid_sent),
      static_cast<unsigned long long>(s.xid_received),
      static_cast<unsigned long long>(s.bad_xid),
      static_cast<unsigned long long>(s.srej_sent),
      static_cast<unsigned long long>(s.srej_received),
      static_cast<unsigned long long>(s.downgrades),
      static_cast<unsigned long long>(s.mod128_links));
  link.VisitConnections([&out](const Ax25Connection& c) {
    const char* state = "?";
    switch (c.state()) {
      case Ax25Connection::State::kDisconnected:
        state = "DISC";
        break;
      case Ax25Connection::State::kNegotiating:
        state = "XID";
        break;
      case Ax25Connection::State::kConnecting:
        state = "SABM";
        break;
      case Ax25Connection::State::kConnected:
        state = "CONN";
        break;
      case Ax25Connection::State::kDisconnecting:
        state = "DISCING";
        break;
    }
    out += Sprintf(
        "  %-9s %-7s v%s mod%-3d k=%-3u srej=%s paclen=%zu "
        "i_sent=%llu i_resent=%llu delivered=%llu\n",
        c.peer().ToString().c_str(), state, Ax25DialectName(c.dialect()),
        ModulusValue(c.modulus()), c.window(), c.srej_enabled() ? "on" : "off",
        c.paclen(), static_cast<unsigned long long>(c.i_frames_sent()),
        static_cast<unsigned long long>(c.i_frames_resent()),
        static_cast<unsigned long long>(c.bytes_delivered()));
  });
  return out;
}

std::string FormatSimulator(const Simulator& sim) {
  const double per_pop =
      sim.executed_events() == 0
          ? 0.0
          : static_cast<double>(sim.pop_compares()) /
                static_cast<double>(sim.executed_events());
  return Sprintf("sim: %llu events scheduled, %zu executed, %zu pending, "
                 "event pool %zu (%zu free), %.2f heap compares/pop\n",
                 static_cast<unsigned long long>(sim.events_scheduled()),
                 sim.executed_events(), sim.pending_events(),
                 sim.pool_capacity(), sim.pool_free(), per_pop);
}

std::string FormatBufStats() {
  std::string out = Sprintf("%-10s %12s %8s %10s\n", "buf layer", "bytes-copied",
                            "allocs", "prepend-re");
  for (int i = 0; i < kBufLayerCount; ++i) {
    auto layer = static_cast<BufLayer>(i);
    const BufLayerStats& s = BufStatsFor(layer);
    if (s.bytes_copied == 0 && s.allocs == 0 && s.prepend_reallocs == 0) {
      continue;
    }
    out += Sprintf("%-10s %12llu %8llu %10llu\n", BufLayerName(layer),
                   static_cast<unsigned long long>(s.bytes_copied),
                   static_cast<unsigned long long>(s.allocs),
                   static_cast<unsigned long long>(s.prepend_reallocs));
  }
  BufLayerStats t = BufStatsTotal();
  out += Sprintf("%-10s %12llu %8llu %10llu\n", "total",
                 static_cast<unsigned long long>(t.bytes_copied),
                 static_cast<unsigned long long>(t.allocs),
                 static_cast<unsigned long long>(t.prepend_reallocs));
  BufPoolStats p = BufPoolSnapshot();
  out += Sprintf(
      "buf pool: %llu hits, %llu misses, %llu oversize, %llu recycled, "
      "%llu dropped, %zu parked\n",
      static_cast<unsigned long long>(p.hits),
      static_cast<unsigned long long>(p.misses),
      static_cast<unsigned long long>(p.oversize),
      static_cast<unsigned long long>(p.recycled),
      static_cast<unsigned long long>(p.dropped), BufPoolDepth());
  return out;
}

std::string FormatTrace(const trace::Tracer& tracer) {
  const trace::TraceStats& s = tracer.stats();
  std::string out = Sprintf("trace: %llu events recorded (%llu evicted from "
                            "ring, %llu truncated to snaplen %zu)\n",
                            static_cast<unsigned long long>(s.recorded),
                            static_cast<unsigned long long>(s.ring_evicted),
                            static_cast<unsigned long long>(s.truncated),
                            tracer.config().snaplen);
  out += "  per layer:";
  for (int i = 0; i < trace::kLayerCount; ++i) {
    if (s.per_layer[i] == 0) {
      continue;
    }
    out += Sprintf(" %s=%llu", trace::LayerName(static_cast<trace::Layer>(i)),
                   static_cast<unsigned long long>(s.per_layer[i]));
  }
  out += "\n";
  if (!tracer.config().pcap_path.empty()) {
    out += Sprintf("  pcapng: %llu packets on %llu interfaces, %llu bytes -> %s%s\n",
                   static_cast<unsigned long long>(s.pcap_packets),
                   static_cast<unsigned long long>(s.pcap_interfaces),
                   static_cast<unsigned long long>(s.pcap_bytes),
                   tracer.config().pcap_path.c_str(),
                   tracer.pcap_ok() ? "" : "  (WRITE FAILED)");
  }
  return out;
}

std::string FormatFaults(const fault::Session& session) {
  const fault::SessionStats& s = session.stats();
  bool replay = session.replaying();
  std::string out =
      Sprintf("faults: %llu decisions %s",
              static_cast<unsigned long long>(replay ? s.replayed : s.recorded),
              replay ? "replayed" : "recorded");
  for (int i = 0; i < fault::kKindCount; ++i) {
    if (s.per_kind[i] == 0) {
      continue;
    }
    out += Sprintf(" %s=%llu", fault::KindName(static_cast<fault::Kind>(i)),
                   static_cast<unsigned long long>(s.per_kind[i]));
  }
  out += "\n";
  if (replay) {
    out += Sprintf("  replay: %llu mismatches, %llu past end of schedule, "
                   "%zu scheduled decisions unused\n",
                   static_cast<unsigned long long>(s.mismatches),
                   static_cast<unsigned long long>(s.exhausted),
                   session.remaining());
  }
  return out;
}

std::string FormatNetstat(const NetStack& stack) {
  std::string out = "--- " + stack.hostname() + " ---\n";
  out += FormatInterfaces(stack);
  out += FormatRoutes(stack);
  out += FormatIpStats(stack);
  return out;
}

}  // namespace upr

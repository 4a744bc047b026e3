// F2 — Figure 2 of the paper: the ISO/OSI stack mapping
// (Radio / AX.25 / IP / TCP / telnet-SMTP-FTP).
//
// Regenerates the figure dynamically: runs each of the three applications
// the paper used across the gateway and accounts for the bytes each layer
// added, proving all seven boxes are live code.
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/apps/ftp.h"
#include "src/apps/smtp.h"
#include "src/apps/telnet.h"
#include "src/scenario/testbed.h"

using namespace upr;
using namespace upr::bench;

namespace {

struct LayerCounts {
  std::uint64_t app_bytes = 0;       // application payload
  std::uint64_t tcp_segments = 0;
  std::uint64_t ip_bytes = 0;        // radio interface IP bytes (both ways)
  std::uint64_t serial_bytes = 0;    // KISS bytes on the PC serial line
  double air_seconds = 0;            // channel busy time
  double elapsed = 0;
};

void PrintCounts(bench::BenchReport* rep, const char* app, const LayerCounts& c) {
  rep->Row({app, FmtInt(c.app_bytes), FmtInt(c.tcp_segments), FmtInt(c.ip_bytes),
            FmtInt(c.serial_bytes), Fmt(c.air_seconds, 1), Fmt(c.elapsed, 1)},
           12);
}

// `conn` is the PC-side connection; its segments_sent fills tcp_segs.
LayerCounts Snapshot(Testbed& tb, std::uint64_t app_bytes,
                     const TcpConnection* conn, SimTime start) {
  LayerCounts c;
  c.app_bytes = app_bytes;
  c.tcp_segments = conn == nullptr ? 0 : conn->stats().segments_sent;
  const InterfaceStats& s = tb.pc(0).radio_if()->stats();
  c.ip_bytes = s.ibytes + s.obytes;
  c.serial_bytes = tb.pc(0).serial().a().bytes_sent() +
                   tb.pc(0).serial().a().bytes_received();
  c.air_seconds = ToSeconds(tb.channel().busy_time());
  c.elapsed = ToSeconds(tb.sim().Now() - start);
  return c;
}

TestbedConfig Config() {
  TestbedConfig cfg;
  cfg.radio_pcs = 1;
  cfg.ether_hosts = 1;
  cfg.radio_bit_rate = 1200;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport rep("fig2_stack", &argc, argv);
  rep.Param("bit_rate", 1200);
  rep.Param("ftp_file_bytes", 2000);
  std::printf("F2: figure-2 stack exercise — telnet/SMTP/FTP over\n"
              "TCP/IP/AX.25/KISS/radio, PC <-> gateway <-> Ethernet host\n");
  rep.Header("per-application layer accounting (radio side of the gateway)",
              {"app", "app_B", "tcp_segs", "ip_B", "serial_B", "air_s", "elapsed_s"},
              12);

  {  // telnet
    Testbed tb(Config());
    tb.PopulateRadioArp();
    TelnetServer server(&tb.host(0).tcp(), "june");
    TelnetClient client(&tb.pc(0).tcp());
    SimTime start = tb.sim().Now();
    client.Connect(Testbed::EtherHostIp(0), "neuman");
    tb.sim().RunUntil(Seconds(600));
    client.SendCommand("echo the quick brown fox");
    tb.sim().RunUntil(Seconds(1200));
    client.Quit();
    tb.sim().RunUntil(Seconds(1800));
    std::uint64_t app_bytes = 0;
    for (const auto& line : client.transcript()) {
      app_bytes += line.size() + 2;
    }
    PrintCounts(&rep, "telnet", Snapshot(tb, app_bytes, client.connection(), start));
    rep.Events(tb.sim().events_scheduled());
  }

  {  // SMTP
    Testbed tb(Config());
    tb.PopulateRadioArp();
    MiniSmtpServer server(&tb.host(0).tcp(), "june");
    MiniSmtpClient client(&tb.pc(0).tcp());
    MailMessage m;
    m.from = "op@pc0";
    m.recipients = {"neuman@june"};
    m.body = {"Subject: stack accounting", "",
              "This message crosses all seven layers of figure 2."};
    SimTime start = tb.sim().Now();
    bool ok = false;
    client.Send(Testbed::EtherHostIp(0), m,
                [&](bool success, const std::string&) { ok = success; });
    tb.sim().RunUntil(Seconds(1800));
    std::uint64_t app_bytes = 0;
    for (const auto& line : m.body) {
      app_bytes += line.size() + 2;
    }
    std::printf("%s", ok ? "" : "  (SMTP DID NOT COMPLETE)\n");
    PrintCounts(&rep, "smtp", Snapshot(tb, app_bytes, client.connection(), start));
    rep.Events(tb.sim().events_scheduled());
  }

  {  // FTP
    Testbed tb(Config());
    tb.PopulateRadioArp();
    MiniFtpServer server(&tb.host(0).tcp(), "june");
    server.store().Put("paper.txt", Bytes(2000, 'x'));
    MiniFtpClient client(&tb.pc(0).tcp());
    SimTime start = tb.sim().Now();
    client.Connect(Testbed::EtherHostIp(0), [](bool) {});
    tb.sim().RunUntil(Seconds(600));
    bool ok = false;
    Bytes data;
    client.Get("paper.txt", [&](bool success, const Bytes& d) {
      ok = success;
      data = d;
    });
    tb.sim().RunUntil(Seconds(3600));
    std::printf("%s", ok ? "" : "  (FTP DID NOT COMPLETE)\n");
    PrintCounts(&rep, "ftp-2000B", Snapshot(tb, data.size(), client.connection(), start));
    rep.Events(tb.sim().events_scheduled());
  }

  std::printf("\nEach layer's overhead is visible: serial_B > ip_B > app_B, and the\n"
              "air occupies the channel for roughly serial_B * 8/1200 seconds —\n"
              "the stack of figure 2, measured rather than drawn.\n");
  return rep.Finish();
}

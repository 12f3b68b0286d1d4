// Live slice migration: checkpoint grammar round trips, switchover
// under traffic, rollback on a held-down destination, budget
// enforcement, and bit-reproducibility of migration-bearing campaigns.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "app/iperf.h"
#include "app/ping.h"
#include "fault/chaos.h"
#include "migrate/checkpoint.h"
#include "migrate/manager.h"
#include "overlay/openvpn.h"
#include "topo/worlds.h"

namespace vini {
namespace {

using packet::IpAddress;
using packet::Prefix;
using sim::kSecond;

topo::WorldOptions spareOptions() {
  topo::WorldOptions options;
  options.spare_nodes = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Checkpoint grammar

TEST(Checkpoint, CaptureEmitParseRoundTripsByteIdentically) {
  auto world = topo::makeDeterWorld();
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  const migrate::RouterCheckpoint cp =
      migrate::captureCheckpoint(*world->router("Fwdr"));
  EXPECT_EQ(cp.router, "Fwdr");
  EXPECT_TRUE(cp.has_ospf);
  EXPECT_FALSE(cp.ospf.lsdb.empty());
  EXPECT_FALSE(cp.fib.empty());

  const std::string wire = migrate::emitCheckpoint(cp);
  const migrate::RouterCheckpoint parsed = migrate::parseCheckpoint(wire);
  EXPECT_EQ(migrate::emitCheckpoint(parsed), wire);
  EXPECT_EQ(parsed.router, cp.router);
  EXPECT_EQ(parsed.ospf.lsdb.size(), cp.ospf.lsdb.size());
  EXPECT_EQ(parsed.fib.size(), cp.fib.size());
}

TEST(Checkpoint, LeasesRideTheWireFormat) {
  migrate::RouterCheckpoint cp;
  cp.router = "Ingress";
  cp.has_leases = true;
  overlay::OpenVpnLease lease;
  lease.real_addr = IpAddress(203, 0, 113, 5);
  lease.real_port = 4242;
  lease.overlay_addr = IpAddress(10, 1, 250, 10);
  lease.session_id = 77;
  cp.leases.push_back(lease);
  cp.lease_next_host = 11;

  const migrate::RouterCheckpoint parsed =
      migrate::parseCheckpoint(migrate::emitCheckpoint(cp));
  ASSERT_TRUE(parsed.has_leases);
  ASSERT_EQ(parsed.leases.size(), 1u);
  EXPECT_EQ(parsed.leases[0].real_addr, lease.real_addr);
  EXPECT_EQ(parsed.leases[0].real_port, lease.real_port);
  EXPECT_EQ(parsed.leases[0].overlay_addr, lease.overlay_addr);
  EXPECT_EQ(parsed.leases[0].session_id, lease.session_id);
  EXPECT_EQ(parsed.lease_next_host, 11u);
}

/// Expect parseCheckpoint to throw, naming the 1-based line and a
/// fragment of the complaint.
void expectParseError(const std::string& text, const std::string& line,
                      const std::string& frag) {
  try {
    migrate::parseCheckpoint(text);
    FAIL() << "no exception for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checkpoint line " + line), std::string::npos) << what;
    EXPECT_NE(what.find(frag), std::string::npos) << what;
  }
}

TEST(Checkpoint, ParseErrorsNameLineAndOffendingText) {
  expectParseError("bogus header\n", "1", "header");
  expectParseError("vini-checkpoint v2\n", "1", "unsupported version");
  expectParseError("vini-checkpoint v1\nrouter R\nfrobnicate\nend\n", "3",
                   "frobnicate");
  expectParseError("vini-checkpoint v1\nrouter R\nlsa 10.0.0.1 3\nend\n", "3",
                   "'lsa' before 'ospf'");
  expectParseError(
      "vini-checkpoint v1\nrouter R\nfib 10.0.0.0/33 10.0.0.1\nend\n", "3",
      "malformed prefix");
  expectParseError("vini-checkpoint v1\nrouter R\nend\nrouter S\n", "4",
                   "content after 'end'");
  expectParseError("vini-checkpoint v1\nrouter R\n", "3", "missing 'end'");
  expectParseError("vini-checkpoint v1\nend\n", "3", "missing 'router");
}

// ---------------------------------------------------------------------------
// Live switchover

TEST(Migration, RouterMovesToSpareUnderTrafficWithinBudget) {
  auto world = topo::makeDeterWorld(spareOptions());
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  migrate::MigrationManager manager(world->queue, world->net, *world->vini,
                                    *world->iias, {});

  app::IperfTcpServer iperf_server(world->stack("Sink"), 5001);
  app::IperfTcpClient iperf_client(world->stack("Src"), world->tapOf("Sink"),
                                   5001, 1, {}, world->tapOf("Src"));
  iperf_client.start(sim::fromSeconds(90.0));
  const double t0 = sim::toSeconds(world->queue.now());
  world->queue.runUntil(sim::fromSeconds(t0 + 10.0));
  const std::uint64_t before = iperf_server.bytesReceived();
  ASSERT_GT(before, 0u);

  manager.requestMigration("Fwdr", "Spare1", 250.0);
  world->queue.runUntil(sim::fromSeconds(t0 + 80.0));

  ASSERT_EQ(manager.records().size(), 1u);
  const migrate::MigrationRecord& record = manager.records()[0];
  EXPECT_TRUE(record.completed) << record.failure;
  EXPECT_FALSE(record.rolled_back);
  EXPECT_EQ(record.from, "Fwdr");
  EXPECT_EQ(record.to, "Spare1");
  EXPECT_LE(record.downtime_ms, record.budget_ms);
  EXPECT_EQ(manager.activeMigrations(), 0u);
  EXPECT_EQ(world->router("Fwdr")->vnode().physNode().name(), "Spare1");

  // The established flow rode through the freeze window.
  EXPECT_GT(iperf_server.bytesReceived(), before);
  EXPECT_EQ(iperf_server.connectionsAccepted(), 1u);
  EXPECT_EQ(iperf_client.streams()[0]->state(), tcpip::TcpState::kEstablished);

  check::Report audit;
  manager.auditInvariants(audit);
  EXPECT_FALSE(audit.hasErrors()) << audit.format();
  EXPECT_NE(manager.reportJson().find("\"completed\":true"), std::string::npos);
}

TEST(Migration, HeldDownDestinationRollsBackWithinBudgetLeasesIntact) {
  auto world = topo::makeDeterWorld(spareOptions());
  auto& net = world->net;
  auto& client_node = net.addNode("Client", IpAddress(128, 112, 93, 81));
  net.addLink(client_node, *net.nodeByName("Src"));
  auto& client_stack = world->stacks.ensure(client_node);
  overlay::OpenVpnServer server(*world->router("Src"),
                                Prefix::mustParse("10.1.250.0/24"));
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  overlay::OpenVpnClient client(client_stack, "cl1");
  client.connectAsync(server);
  const double t0 = sim::toSeconds(world->queue.now());
  world->queue.runUntil(sim::fromSeconds(t0 + 2.0));
  ASSERT_TRUE(client.connected());
  const IpAddress lease = client.overlayAddress();

  migrate::MigrationManager manager(world->queue, world->net, *world->vini,
                                    *world->iias, {});
  manager.attachIngress(&server, {&client});
  manager.setNodeProbe([](const std::string&) { return false; });  // held down
  manager.requestMigration("Src", "Spare1", 400.0);
  world->queue.runUntil(sim::fromSeconds(t0 + 60.0));

  ASSERT_EQ(manager.records().size(), 1u);
  const migrate::MigrationRecord& record = manager.records()[0];
  EXPECT_TRUE(record.rolled_back);
  EXPECT_FALSE(record.completed);
  EXPECT_FALSE(record.failure.empty());
  EXPECT_LE(record.downtime_ms, record.budget_ms);  // budget held on rollback
  EXPECT_EQ(world->router("Src")->vnode().physNode().name(), "Src");

  // Original leases intact: same overlay address, same session, no
  // re-handshake needed to keep the session alive.
  EXPECT_EQ(server.sessionCount(), 1u);
  EXPECT_EQ(client.overlayAddress(), lease);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnects(), 0u);

  check::Report audit;
  manager.auditInvariants(audit);
  EXPECT_FALSE(audit.hasErrors()) << audit.format();
}

TEST(Migration, IngressLeasesFollowTheServerAcrossAMove) {
  auto world = topo::makeDeterWorld(spareOptions());
  auto& net = world->net;
  auto& client_node = net.addNode("Client", IpAddress(128, 112, 93, 81));
  net.addLink(client_node, *net.nodeByName("Src"));
  auto& client_stack = world->stacks.ensure(client_node);
  overlay::OpenVpnServer server(*world->router("Src"),
                                Prefix::mustParse("10.1.250.0/24"));
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  overlay::OpenVpnClient client(client_stack, "cl1");
  client.connectAsync(server);
  const double t0 = sim::toSeconds(world->queue.now());
  world->queue.runUntil(sim::fromSeconds(t0 + 2.0));
  ASSERT_TRUE(client.connected());
  const IpAddress lease = client.overlayAddress();
  const IpAddress old_server_addr = server.serverAddress();

  migrate::MigrationManager manager(world->queue, world->net, *world->vini,
                                    *world->iias, {});
  manager.attachIngress(&server, {&client});
  manager.requestMigration("Src", "Spare1");
  world->queue.runUntil(sim::fromSeconds(t0 + 60.0));

  ASSERT_EQ(manager.records().size(), 1u);
  EXPECT_TRUE(manager.records()[0].completed)
      << manager.records()[0].failure;
  EXPECT_NE(server.serverAddress(), old_server_addr);  // new substrate home
  EXPECT_EQ(server.sessionCount(), 1u);
  EXPECT_EQ(client.overlayAddress(), lease);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnects(), 0u);  // rehomed, never re-handshook

  // The tunnel still carries traffic from the client into the overlay.
  app::Pinger::Options popt;
  popt.count = 5;
  popt.source = client.overlayAddress();
  app::Pinger pinger(client_stack, world->tapOf("Sink"), popt);
  bool done = false;
  pinger.start([&] { done = true; });
  world->queue.runUntil(world->queue.now() + 30 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(pinger.report().received, 5u);
}

TEST(Migration, UnknownRouterOrDestinationThrows) {
  auto world = topo::makeDeterWorld(spareOptions());
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  migrate::MigrationManager manager(world->queue, world->net, *world->vini,
                                    *world->iias, {});
  EXPECT_THROW(manager.requestMigration("NoSuchRouter", "Spare1"),
               std::runtime_error);
  EXPECT_THROW(manager.requestMigration("Fwdr", "NoSuchNode"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Chaos integration

TEST(Migration, ChaosCampaignWithMigrationsIsBitReproducible) {
  auto run = [] {
    auto world = topo::makeDeterWorld(spareOptions());
    fault::ChaosOptions options;
    options.duration_seconds = 60.0;
    options.model = fault::denseCampaignModel(1);
    options.model.migrate.enabled = true;
    return fault::runChaosCampaign(*world, options);
  };
  const fault::ChaosReport a = run();
  const fault::ChaosReport b = run();
  EXPECT_TRUE(a.passed()) << a.format();
  EXPECT_EQ(a.format(), b.format());
  EXPECT_EQ(a.migration_json, b.migration_json);
  EXPECT_TRUE(a.migrations_enabled);
  EXPECT_GE(a.migrations_requested, 1u);
  EXPECT_NE(a.event_log.find("migrate"), std::string::npos);
}

TEST(Migration, SparesDoNotPerturbMigrationFreeCampaigns) {
  // A world with an idle spare runs the exact same campaign as one
  // without: spare links carry prohibitive weight and the migrate
  // class is appended after every other draw.
  auto run = [](int spares) {
    topo::WorldOptions options;
    options.spare_nodes = spares;
    auto world = topo::makeDeterWorld(options);
    fault::ChaosOptions chaos;
    chaos.duration_seconds = 30.0;
    chaos.model = fault::denseCampaignModel(3);
    return fault::runChaosCampaign(*world, chaos);
  };
  const fault::ChaosReport without = run(0);
  const fault::ChaosReport with = run(1);
  EXPECT_TRUE(without.passed()) << without.format();
  // The spare's own links join the fault target list, so event counts
  // may differ — but the spare never carries overlay traffic, so both
  // campaigns stay clean and converge.
  EXPECT_TRUE(with.passed()) << with.format();
}

}  // namespace
}  // namespace vini

// The abstraction-layer guarantee (§2.3), live: the very same group
// communication stack that runs inside the simulation runs here on real
// UDP sockets over loopback — three nodes, three OS threads, atomic
// multicast with a fixed sequencer.
//
//   $ ./native_loopback [--nodes N] [--messages N] [--port P]
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "csrt/native_env.hpp"
#include "gcs/group.hpp"
#include "util/flags.hpp"

using namespace dbsm;

int main(int argc, char** argv) {
  util::flag_set flags;
  flags.declare("nodes", "3", "group members (threads)");
  flags.declare("messages", "5", "messages each node multicasts");
  flags.declare("port", "30500", "base UDP port (node i binds port+i)");
  if (!flags.parse(argc, argv)) return 1;

  const auto n = static_cast<unsigned>(flags.get_int("nodes"));
  const auto per_node = static_cast<unsigned>(flags.get_int("messages"));
  const auto base_port =
      static_cast<std::uint16_t>(flags.get_int("port"));

  std::vector<node_id> members;
  for (unsigned i = 0; i < n; ++i) members.push_back(i);

  std::vector<std::unique_ptr<csrt::native_env>> envs;
  std::vector<std::unique_ptr<gcs::group>> groups;
  std::vector<std::vector<std::string>> delivered(n);
  std::atomic<unsigned> total{0};

  for (unsigned i = 0; i < n; ++i) {
    csrt::native_env::config cfg;
    cfg.self = i;
    cfg.peers = members;
    cfg.base_port = base_port;
    envs.push_back(
        std::make_unique<csrt::native_env>(cfg, util::rng(100 + i)));
    gcs::group_config gcfg;
    gcfg.members = members;
    groups.push_back(std::make_unique<gcs::group>(*envs[i], gcfg));
    groups[i]->set_deliver_run([&, i](std::vector<gcs::delivery>&& run) {
      for (const gcs::delivery& d : run) {
        delivered[i].emplace_back(d.payload->begin(), d.payload->end());
        if (i == 0) {
          std::printf("[node 0] delivery #%llu: %s\n",
                      static_cast<unsigned long long>(d.global_seq),
                      delivered[0].back().c_str());
        }
        total.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      groups[i]->start();
      envs[i]->run();
    });
  }

  std::printf("multicasting %u messages from each of %u nodes over real "
              "UDP sockets...\n", per_node, n);
  for (unsigned k = 0; k < per_node; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      const std::string text =
          "node" + std::to_string(i) + "-msg" + std::to_string(k);
      auto payload =
          std::make_shared<util::bytes>(text.begin(), text.end());
      groups[i]->submit(payload);
    }
  }

  const unsigned expected = n * n * per_node;
  for (int spin = 0; spin < 500 && total.load() < expected; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& e : envs) e->stop();
  for (auto& t : threads) t.join();

  bool identical = true;
  for (unsigned i = 1; i < n; ++i) {
    identical = identical && delivered[i] == delivered[0];
  }
  std::printf("\n%u deliveries at each node; total order %s across all "
              "nodes.\n",
              static_cast<unsigned>(delivered[0].size()),
              identical ? "IDENTICAL" : "DIVERGED");
  return identical && delivered[0].size() == n * per_node ? 0 : 1;
}

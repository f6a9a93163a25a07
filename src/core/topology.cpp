#include "core/topology.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace hbsp {

MachineTree make_hbsp1_cluster(std::span<const double> leaf_r, double g,
                               double L) {
  if (leaf_r.empty()) {
    throw std::invalid_argument{"make_hbsp1_cluster: need at least one processor"};
  }
  MachineSpec root;
  root.name = "cluster";
  root.sync_L = L;
  int id = 0;
  for (const double r : leaf_r) {
    MachineSpec leaf;
    leaf.name = "ws" + std::to_string(id++);
    leaf.r = r;
    root.children.push_back(std::move(leaf));
  }
  return MachineTree::build(root, g);
}

std::span<const double> paper_testbed_speeds() {
  // BYTEmark-style relative slowness of ten 2000-era SUN/SGI workstations.
  // Inventory order: fastest first, slowest second (see header).
  static constexpr std::array<double, 10> kSpeeds = {
      1.0, 2.5, 1.2, 1.9, 1.45, 2.2, 1.1, 2.0, 1.35, 1.7};
  return kSpeeds;
}

MachineTree make_paper_testbed(int p, double g, double L) {
  const auto speeds = paper_testbed_speeds();
  if (p < 2 || p > static_cast<int>(speeds.size())) {
    throw std::invalid_argument{"make_paper_testbed: p must be in [2, 10]"};
  }
  return make_hbsp1_cluster(speeds.subspan(0, static_cast<std::size_t>(p)), g, L);
}

MachineTree make_figure1_cluster(double g, double L2) {
  MachineSpec smp;
  smp.name = "smp";
  smp.sync_L = kDefaultL1 / 20;  // shared-memory barrier: far cheaper than a LAN
  for (int i = 0; i < 4; ++i) {
    MachineSpec cpu;
    cpu.name = "smp-cpu" + std::to_string(i);
    cpu.r = 1.0;
    smp.children.push_back(std::move(cpu));
  }

  MachineSpec sgi;  // a bare workstation directly on the campus network
  sgi.name = "sgi";
  sgi.r = 1.4;

  MachineSpec lan;
  lan.name = "lan";
  lan.sync_L = kDefaultL1;
  const std::array<double, 4> lan_r = {1.6, 2.2, 2.8, 3.6};
  for (int i = 0; i < 4; ++i) {
    MachineSpec ws;
    ws.name = "lan-ws" + std::to_string(i);
    ws.r = lan_r[static_cast<std::size_t>(i)];
    lan.children.push_back(std::move(ws));
  }

  MachineSpec root;
  root.name = "campus";
  root.sync_L = L2;
  root.children.push_back(std::move(smp));
  root.children.push_back(std::move(sgi));
  root.children.push_back(std::move(lan));
  return MachineTree::build(root, g);
}

MachineTree make_wide_area_grid(double g, double L_scale) {
  const auto lab = [](const char* name, std::initializer_list<double> rs,
                      double L) {
    MachineSpec cluster;
    cluster.name = name;
    cluster.sync_L = L;
    int i = 0;
    for (const double r : rs) {
      MachineSpec ws;
      ws.name = std::string{name} + "-ws" + std::to_string(i++);
      ws.r = r;
      cluster.children.push_back(std::move(ws));
    }
    return cluster;
  };

  const double L1 = kDefaultL1;
  MachineSpec campus_a;
  campus_a.name = "campus-a";
  campus_a.sync_L = L1 * L_scale;
  campus_a.children.push_back(lab("a-lab0", {1.0, 1.3, 1.8}, L1));
  campus_a.children.push_back(lab("a-lab1", {1.2, 1.5, 2.1, 2.6}, L1));
  MachineSpec a_server;
  a_server.name = "a-server";
  a_server.r = 1.1;
  campus_a.children.push_back(std::move(a_server));

  MachineSpec campus_b;
  campus_b.name = "campus-b";
  campus_b.sync_L = L1 * L_scale;
  campus_b.children.push_back(lab("b-lab0", {1.4, 1.9, 2.4}, L1));
  campus_b.children.push_back(lab("b-lab1", {1.6, 2.0}, L1));

  MachineSpec root;
  root.name = "wide-area";
  root.sync_L = L1 * L_scale * L_scale;
  root.children.push_back(std::move(campus_a));
  root.children.push_back(std::move(campus_b));
  return MachineTree::build(root, g);
}

MachineTree make_random_tree(const RandomTreeOptions& options,
                             std::uint64_t seed) {
  if (options.levels < 1) {
    throw std::invalid_argument{"make_random_tree: levels must be >= 1"};
  }
  if (options.min_fanout < 1 || options.max_fanout < options.min_fanout) {
    throw std::invalid_argument{"make_random_tree: bad fanout range"};
  }
  util::Rng rng{seed};
  bool placed_fastest = false;

  const auto grow = [&](auto&& self, int depth) -> MachineSpec {
    MachineSpec spec;
    spec.name.append("n")
        .append(std::to_string(depth))
        .append("_")
        .append(std::to_string(rng.uniform_u64(0, 9999)));
    const bool at_bottom = depth == options.levels;
    const bool degenerate =
        depth > 0 && !at_bottom &&
        rng.uniform01() < options.leaf_degenerate_probability;
    if (at_bottom || degenerate) {
      spec.r = rng.uniform(1.0, options.max_r);
      return spec;
    }
    const int level = options.levels - depth;
    spec.sync_L = options.L_base * std::pow(10.0, level - 1);
    const auto fanout = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(options.min_fanout),
        static_cast<std::uint64_t>(options.max_fanout)));
    for (int i = 0; i < fanout; ++i) {
      spec.children.push_back(self(self, depth + 1));
    }
    return spec;
  };
  MachineSpec root = grow(grow, 0);

  // Force the normalisation invariant: pin the first processor found to r = 1.
  const auto pin_fastest = [&](auto&& self, MachineSpec& spec) -> void {
    if (placed_fastest) return;
    if (spec.children.empty()) {
      spec.r = 1.0;
      placed_fastest = true;
      return;
    }
    for (auto& child : spec.children) self(self, child);
  };
  pin_fastest(pin_fastest, root);
  return MachineTree::build(root, options.g);
}

MachineTree make_uniform_tree(int levels, int fanout,
                              std::span<const double> leaf_r_cycle, double g,
                              double L_base) {
  if (levels < 1 || fanout < 1) {
    throw std::invalid_argument{"make_uniform_tree: bad shape"};
  }
  if (leaf_r_cycle.empty()) {
    throw std::invalid_argument{"make_uniform_tree: empty r cycle"};
  }
  std::size_t next_r = 0;
  const auto grow = [&](auto&& self, int depth) -> MachineSpec {
    MachineSpec spec;
    if (depth == levels) {
      spec.r = leaf_r_cycle[next_r % leaf_r_cycle.size()];
      spec.name.append("p").append(std::to_string(next_r));
      ++next_r;
      return spec;
    }
    const int level = levels - depth;
    spec.name.append("c").append(std::to_string(level));
    spec.sync_L = L_base * std::pow(10.0, level - 1);
    for (int i = 0; i < fanout; ++i) spec.children.push_back(self(self, depth + 1));
    return spec;
  };
  return MachineTree::build(grow(grow, 0), g);
}

}  // namespace hbsp

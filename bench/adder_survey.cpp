/// Component-library survey: every adder family in the library — IMPACT
/// ripple chains (Sec. 4.1), GeAr and the prior art it generalizes
/// (Sec. 4.2), and the lower-part-approximate family from the surveyed
/// literature — characterized for area, power and quality at 16 bits.
/// This is the lpACLib-style catalogue the paper open-sources.
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "axc/arith/lpa_adders.hpp"
#include "axc/arith/soa_adders.hpp"
#include "axc/designspace/static_adder.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/power.hpp"
#include "bench_util.hpp"

int main() {
  using namespace axc;
  using arith::FullAdderKind;
  bench::banner("Library survey", "16-bit approximate adder catalogue");

  struct Entry {
    std::unique_ptr<arith::Adder> adder;
    std::function<logic::Netlist()> netlist;
    std::string label = {};  ///< row label when not the adder's name
  };
  std::vector<Entry> entries;
  const unsigned n = 16;

  // Exact baseline.
  {
    const std::vector<FullAdderKind> cells(n, FullAdderKind::Accurate);
    entries.push_back({std::make_unique<arith::ExactAdder>(n),
                       [cells] { return logic::ripple_adder_netlist(cells); }});
  }
  // IMPACT cells on 4 and 8 LSBs.
  for (const FullAdderKind kind :
       {FullAdderKind::Apx1, FullAdderKind::Apx2, FullAdderKind::Apx3,
        FullAdderKind::Apx4, FullAdderKind::Apx5}) {
    for (const unsigned k : {4u, 8u}) {
      auto ripple = std::make_unique<arith::RippleAdder>(
          arith::RippleAdder::lsb_approximated(n, kind, k));
      const auto cells = ripple->cells();
      entries.push_back(
          {std::move(ripple),
           [cells] { return logic::ripple_adder_netlist(cells); }});
    }
  }
  // GeAr family, including the SoA equivalences.
  for (const arith::GeArConfig config :
       {arith::GeArConfig{16, 4, 4}, arith::GeArConfig{16, 2, 2},
        arith::GeArConfig{16, 2, 6}, arith::aca_i_config(16, 6),
        arith::gda_config(16, 2, 3)}) {
    entries.push_back({std::make_unique<arith::GeArAdder>(config),
                       [config] { return logic::gear_adder_netlist(config); }});
  }
  // Lower-part-approximate family.
  for (const unsigned k : {4u, 8u}) {
    const auto loa = designspace::static_adder_cells(
        designspace::StaticAdderKind::Loa, n, k);
    const std::string label =
        "LOA(" + std::to_string(n) + "," + std::to_string(k) + ")";
    entries.push_back({std::make_unique<arith::RippleAdder>(loa),
                       [=] { return logic::ripple_adder_netlist(loa); },
                       label});
    entries.push_back({std::make_unique<arith::EtaiAdder>(n, k),
                       [=] { return logic::etai_adder_netlist(n, k); }});
  }

  Table table({"Adder", "Area [GE]", "Power [nW]", "Error rate", "MED",
               "NMED", "Max err"});
  for (const Entry& entry : entries) {
    const logic::Netlist nl = entry.netlist();
    const double power =
        logic::estimate_random_power(nl, 1024, 3).total_nw;
    error::EvalOptions opts;
    opts.samples = 1u << 18;
    const auto stats = error::evaluate_adder(*entry.adder, opts);
    table.add_row({entry.label.empty() ? entry.adder->name() : entry.label,
                   fmt(nl.area_ge(), 1), fmt(power, 0),
                   fmt_pct(stats.error_rate, 2),
                   fmt(stats.mean_error_distance, 2),
                   fmt(stats.normalized_med, 5),
                   std::to_string(stats.max_error)});
  }
  table.print(std::cout);
  std::cout << "\nOne catalogue, one metric vocabulary: this is the design\n"
               "space an approximation-aware compiler or HLS flow would\n"
               "search (Sec. 4.2's cross-layer motivation).\n";
  return 0;
}

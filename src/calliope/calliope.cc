#include "src/calliope/calliope.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <utility>

#include "src/util/logging.h"

namespace calliope {

MachineParams DisklessHost() {
  MachineParams params = MicronP66();
  params.disks_per_hba.clear();
  return params;
}

std::string SuffixedTracePath(const std::string& path, int ordinal) {
  if (ordinal <= 1) {
    return path;
  }
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  const std::string suffix = "." + std::to_string(ordinal);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;  // no extension: append
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

Installation::Installation(InstallationConfig config)
    : config_(std::move(config)), network_(sim_, metrics_, trace_, config_.network) {
  if (config_.colocate_coordinator) {
    config_.standby_coordinator = false;  // needs a dedicated coordinator host
  }
  if (config_.standby_coordinator && config_.msu.coordinator_hosts.empty()) {
    // MSUs redial the pair; whichever member is primary accepts.
    config_.msu.coordinator_hosts = {"coordinator", "coordinator2"};
  }
  for (int i = 0; i < config_.msu_count; ++i) {
    MachineParams msu_params = config_.msu_machine;
    msu_params.rng_seed = config_.seed + static_cast<uint64_t>(i) * 7919;
    const std::string name = "msu" + std::to_string(i);
    msu_machines_.push_back(std::make_unique<Machine>(sim_, msu_params, name));
    msu_nodes_.push_back(network_.AddNode(name, msu_machines_.back().get(), /*on_intra=*/true));
    msus_.push_back(std::make_unique<Msu>(*msu_machines_.back(), *msu_nodes_.back(), metrics_,
                                          trace_, config_.msu));
  }

  // The catalog models durable shared storage: both HA pair members read
  // and write the same content/customer records.
  auto catalog = std::make_shared<Catalog>(Catalog::WithStandardTypes());
  if (config_.colocate_coordinator && !msus_.empty()) {
    // Small installation: the Coordinator runs on msu0's machine and shares
    // its host name; MSUs register against "msu0".
    coordinator_node_ = msu_nodes_.front();
    coordinator_ = std::make_unique<Coordinator>(*msu_machines_.front(), *coordinator_node_,
                                                 catalog, metrics_, trace_, config_.coordinator);
  } else {
    MachineParams coord_params = DisklessHost();
    coord_params.rng_seed = config_.seed ^ 0xC00D;
    coordinator_machine_ = std::make_unique<Machine>(sim_, coord_params, "coordinator");
    coordinator_node_ = network_.AddNode("coordinator", coordinator_machine_.get(),
                                         /*on_intra=*/true);
    CoordinatorParams primary_params = config_.coordinator;
    if (config_.standby_coordinator) {
      primary_params.ha.enabled = true;
      primary_params.ha.peer_node = "coordinator2";
      primary_params.ha.peer_port = primary_params.listen_port;
    }
    coordinator_ = std::make_unique<Coordinator>(*coordinator_machine_, *coordinator_node_,
                                                 catalog, metrics_, trace_, primary_params);
    if (config_.standby_coordinator) {
      MachineParams standby_params = DisklessHost();
      standby_params.rng_seed = config_.seed ^ 0xC00D2;
      standby_machine_ = std::make_unique<Machine>(sim_, standby_params, "coordinator2");
      standby_node_ = network_.AddNode("coordinator2", standby_machine_.get(),
                                       /*on_intra=*/true);
      CoordinatorParams standby_coord_params = config_.coordinator;
      standby_coord_params.ha.enabled = true;
      standby_coord_params.ha.peer_node = "coordinator";
      standby_coord_params.ha.peer_port = standby_coord_params.listen_port;
      standby_coord_params.ha.start_as_standby = true;
      standby_ = std::make_unique<Coordinator>(*standby_machine_, *standby_node_, catalog,
                                               metrics_, trace_, standby_coord_params);
    }
  }
  AddDefaultCustomers();

  if (config_.sampler.period > SimTime()) {
    sampler_ = std::make_unique<MetricsSampler>(sim_, metrics_, trace_, config_.sampler,
                                                config_.slos);
    for (auto& msu : msus_) {
      msu->set_qos_sink(sampler_->qos());
    }
    sampler_->Start();
    if (config_.coordinator.traffic.enabled) {
      // The saturation governor watches the sampler's live SLO verdicts: any
      // configured monitor inside a breach episode means "overloaded".
      MetricsSampler* sampler = sampler_.get();
      coordinator_->SetOverloadProbe([sampler] { return sampler->AnySloBreaching(); });
      if (standby_ != nullptr) {
        standby_->SetOverloadProbe([sampler] { return sampler->AnySloBreaching(); });
      }
    }
  }
  if (const char* env = std::getenv("CALLIOPE_TRACE"); env != nullptr && *env != '\0') {
    // Benches build several Installations in one process; each gets its own
    // suffixed path so the later ones don't overwrite the first trace.
    static int env_trace_ordinal = 0;
    EnableTracing(SuffixedTracePath(env, ++env_trace_ordinal));
  }
}

Installation::~Installation() {
  if (trace_path_.empty()) {
    return;
  }
  if (Status written = trace_.WriteFile(trace_path_); !written.ok()) {
    CALLIOPE_LOG(kWarning, "calliope") << "trace not written: " << written.ToString();
  }
}

void Installation::EnableTracing(std::string path) {
  trace_.set_enabled(true);
  trace_path_ = std::move(path);
}

const std::string& Installation::coordinator_host() const {
  return coordinator_node_->name();
}

Coordinator& Installation::current_primary() {
  if (standby_ == nullptr) {
    return *coordinator_;
  }
  const bool first = !coordinator_->crashed() && coordinator_->is_primary();
  const bool second = !standby_->crashed() && standby_->is_primary();
  if (first && second) {
    return coordinator_->ha_epoch() >= standby_->ha_epoch() ? *coordinator_ : *standby_;
  }
  return second ? *standby_ : *coordinator_;
}

Status Installation::Boot(SimTime timeout) {
  for (auto& msu : msus_) {
    // Fire-and-forget registration tasks.
    [](Msu* m, std::string host) -> Task {
      co_await m->RegisterWithCoordinator(std::move(host));
    }(msu.get(), coordinator_host());
  }
  const SimTime deadline = sim_.Now() + timeout;
  while (sim_.Now() < deadline) {
    bool all_up = true;
    for (size_t i = 0; i < msus_.size(); ++i) {
      if (!coordinator_->MsuUp("msu" + std::to_string(i))) {
        all_up = false;
        break;
      }
    }
    if (all_up && (standby_ == nullptr || standby_->ha_joined())) {
      return OkStatus();
    }
    sim_.RunFor(SimTime::Millis(10));
  }
  if (standby_ != nullptr && !standby_->ha_joined()) {
    return DeadlineExceededError("standby coordinator never joined");
  }
  return DeadlineExceededError("MSUs failed to register");
}

Status Installation::ApplyFaultPlan(FaultPlan plan) {
  if (fault_injector_ == nullptr) {
    // Before Arm() so the planned fault windows land in the trace as spans.
    fault_injector_ = std::make_unique<FaultInjector>(sim_, network_, metrics_, trace_,
                                                      config_.seed ^ 0xFA017);
    for (size_t i = 0; i < msus_.size(); ++i) {
      fault_injector_->AttachMsu("msu" + std::to_string(i), msus_[i].get());
    }
    fault_injector_->AttachCoordinator(coordinator_.get(), coordinator_host());
    if (standby_ != nullptr) {
      fault_injector_->AttachStandbyCoordinator(standby_.get(), "coordinator2");
    }
  }
  return fault_injector_->Arm(std::move(plan));
}

ClusterReport Installation::BuildClusterReport() {
  ClusterReport report;
  report.metrics = metrics_.Snapshot();
  for (size_t i = 0; i < msus_.size(); ++i) {
    const std::string& node = msu_nodes_[i]->name();
    msus_[i]->ForEachStream([&](const MsuStream& stream, bool finished) {
      StreamQosReport row;
      row.stream_id = stream.id();
      row.group_id = stream.group();
      row.msu = node;
      row.disk = stream.disk();
      row.file = stream.file_name();
      row.recording = stream.mode() == MsuStream::Mode::kRecord;
      row.finished = finished;
      row.packets_sent = stream.packets_sent();
      row.packets_late = stream.lateness().CountAbove(SimTime());
      row.p50_lateness_us = stream.lateness().Quantile(0.5).micros();
      row.p99_lateness_us = stream.lateness().Quantile(0.99).micros();
      row.max_lateness_us = std::max<int64_t>(stream.lateness().MaxRecorded().micros(), 0);
      report.streams.push_back(std::move(row));
    });
  }
  std::sort(report.streams.begin(), report.streams.end(),
            [](const StreamQosReport& a, const StreamQosReport& b) {
              return a.stream_id < b.stream_id;
            });
  for (auto& client : clients_) {
    const std::string& client_name = client->node().name();
    client->ForEachPort([&](const ClientDisplayPort& port) {
      PortQosReport row;
      row.client = client_name;
      row.port = port.name();
      row.packets_received = port.packets_received();
      row.out_of_order = port.out_of_order();
      row.glitches = port.glitches();
      row.max_gap_us = port.max_arrival_gap().micros();
      report.ports.push_back(std::move(row));
    });
  }
  std::sort(report.ports.begin(), report.ports.end(),
            [](const PortQosReport& a, const PortQosReport& b) {
              return std::tie(a.client, a.port) < std::tie(b.client, b.port);
            });
  if (sampler_ != nullptr) {
    report.timeline = sampler_->BuildTimelineReport();
  }
  return report;
}

CalliopeClient& Installation::AddClient(const std::string& name) {
  MachineParams client_params = DisklessHost();
  client_params.rng_seed = config_.seed ^ (clients_.size() + 0xC11E47);
  client_machines_.push_back(std::make_unique<Machine>(sim_, client_params, name));
  NetNode* node = network_.AddNode(name, client_machines_.back().get(), /*on_intra=*/false);
  clients_.push_back(std::make_unique<CalliopeClient>(*node, coordinator_host(),
                                                      config_.coordinator.listen_port));
  if (standby_ != nullptr) {
    clients_.back()->set_coordinator_hosts({coordinator_host(), "coordinator2"});
  }
  if (sampler_ != nullptr) {
    clients_.back()->set_qos_sink(sampler_->qos());
  }
  return *clients_.back();
}

void Installation::AddDefaultCustomers() {
  (void)coordinator_->catalog().AddCustomer(Customer{"alice", "alice-key", /*admin=*/true});
  (void)coordinator_->catalog().AddCustomer(Customer{"bob", "bob-key", /*admin=*/false});
}

Status Installation::InstallFile(const std::string& file_name, const PacketSequence& packets,
                                 size_t msu_index, int disk, IbTreeFile* out_image) {
  IbTreeBuilder builder;
  for (const MediaPacket& packet : packets) {
    CALLIOPE_RETURN_IF_ERROR(builder.Add(packet));
  }
  IbTreeFile image = builder.Finish();
  if (out_image != nullptr) {
    *out_image = image;  // copy: caller inspects, file system keeps its own
  }
  auto installed = msus_.at(msu_index)->fs().InstallImage(file_name, std::move(image),
                                                          config_.msu.striped_layout, disk);
  return installed.status();
}

Status Installation::ReplicateContent(const std::string& name, size_t msu_index, int disk) {
  auto record = coordinator_->catalog().FindContent(name);
  if (!record.ok()) {
    return record.status();
  }
  if ((*record)->is_composite()) {
    for (const std::string& item : (*record)->component_items) {
      CALLIOPE_RETURN_IF_ERROR(ReplicateContent(item, msu_index, disk));
    }
    return OkStatus();
  }
  if ((*record)->locations.empty()) {
    return FailedPreconditionError("content has no source copy: " + name);
  }
  // Source image comes from the MSU currently holding the content.
  const ContentLocation& source = (*record)->locations.front();
  size_t source_index = 0;
  for (size_t i = 0; i < msus_.size(); ++i) {
    if ("msu" + std::to_string(i) == source.msu_node) {
      source_index = i;
      break;
    }
  }
  const bool same_msu = msu_index == source_index;
  // A same-MSU replica on another disk needs a distinct file name; fast-scan
  // variants are shared with the original copy in that case.
  const std::string suffix =
      same_msu ? ".copy" + std::to_string((*record)->locations.size()) : "";
  auto replicate_file = [&](const std::string& file_name, const std::string& copy_suffix,
                            int* home_disk) -> Status {
    if (file_name.empty()) {
      return OkStatus();
    }
    CALLIOPE_ASSIGN_OR_RETURN(MsuFile * source_file,
                              msus_.at(source_index)->fs().Lookup(file_name));
    IbTreeFile image = source_file->image();  // deep copy of the content image
    CALLIOPE_ASSIGN_OR_RETURN(MsuFile * copy, msus_.at(msu_index)->fs().InstallImage(
                                                  file_name + copy_suffix, std::move(image),
                                                  config_.msu.striped_layout, disk));
    if (home_disk != nullptr) {
      *home_disk = copy->home_disk();
    }
    return OkStatus();
  };
  int copy_disk = 0;
  CALLIOPE_RETURN_IF_ERROR(replicate_file((*record)->file_name, suffix, &copy_disk));
  if (!same_msu) {
    CALLIOPE_RETURN_IF_ERROR(replicate_file((*record)->fast_forward_file, "", nullptr));
    CALLIOPE_RETURN_IF_ERROR(replicate_file((*record)->fast_backward_file, "", nullptr));
  }
  ContentLocation copy_location{"msu" + std::to_string(msu_index), copy_disk};
  if (same_msu) {
    copy_location.file_name = (*record)->file_name + suffix;
  }
  (*record)->locations.push_back(std::move(copy_location));
  return OkStatus();
}

Status Installation::LoadPackets(const std::string& name, const std::string& type_name,
                                 const PacketSequence& packets, size_t msu_index, int disk) {
  CALLIOPE_RETURN_IF_ERROR(InstallFile(name + ".dat", packets, msu_index, disk, nullptr));
  auto file = msus_.at(msu_index)->fs().Lookup(name + ".dat");
  ContentRecord record;
  record.name = name;
  record.type_name = type_name;
  record.file_name = name + ".dat";
  record.duration = packets.empty() ? SimTime() : packets.back().delivery_offset;
  record.locations.push_back(
      ContentLocation{"msu" + std::to_string(msu_index), (*file)->home_disk()});
  return coordinator_->catalog().AddContent(std::move(record));
}

Status Installation::LoadMpegMovie(const std::string& name, SimTime duration, size_t msu_index,
                                   bool with_fast_scan, int disk) {
  MpegEncoderConfig encoder;
  const MpegStream stream = EncodeMpeg(encoder, duration, config_.seed ^ std::hash<std::string>{}(name));
  const Bytes packet_size = Bytes::KiB(4);

  CALLIOPE_RETURN_IF_ERROR(
      InstallFile(name + ".mpg", PacketizeCbr(stream, packet_size), msu_index, disk, nullptr));
  auto file = msus_.at(msu_index)->fs().Lookup(name + ".mpg");
  const int home_disk = (*file)->home_disk();

  ContentRecord record;
  record.name = name;
  record.type_name = "mpeg1";
  record.file_name = name + ".mpg";
  record.duration = stream.duration();
  record.locations.push_back(ContentLocation{"msu" + std::to_string(msu_index), home_disk});

  if (with_fast_scan) {
    // The administrator's offline filtering program (§2.3.1): every 15th
    // frame, recompressed; reversed for fast-backward.
    const MpegStream ff = FilterFastForward(stream, encoder.gop_size);
    const MpegStream fb = FilterFastBackward(stream, encoder.gop_size);
    CALLIOPE_RETURN_IF_ERROR(
        InstallFile(name + ".ff", PacketizeCbr(ff, packet_size), msu_index, home_disk, nullptr));
    CALLIOPE_RETURN_IF_ERROR(
        InstallFile(name + ".fb", PacketizeCbr(fb, packet_size), msu_index, home_disk, nullptr));
    record.fast_forward_file = name + ".ff";
    record.fast_backward_file = name + ".fb";
  }
  return coordinator_->catalog().AddContent(std::move(record));
}

}  // namespace calliope

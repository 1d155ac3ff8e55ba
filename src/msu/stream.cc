#include <algorithm>

#include "src/msu/msu.h"
#include "src/obs/sampler.h"
#include "src/util/logging.h"

namespace calliope {

MsuStream::MsuStream(Msu& msu, const MsuStartGroup& launch, const MsuStreamSpec& spec,
                     std::unique_ptr<ProtocolModule> protocol)
    : msu_(&msu),
      id_(spec.stream),
      group_(launch.group),
      mode_(spec.record ? Mode::kRecord : Mode::kPlay),
      file_name_(spec.file),
      ff_file_(spec.fast_forward_file),
      fb_file_(spec.fast_backward_file),
      protocol_name_(spec.protocol),
      protocol_(std::move(protocol)),
      rate_(spec.rate),
      shared_(!spec.shared_members.empty()),
      from_cache_(spec.from_cache),
      fanout_settled_(msu.sim()),
      buffers_changed_(msu.sim()),
      last_interesting_(msu.sim().Now()),  // admission is an interesting moment
      record_pages_ready_(msu.sim()),
      start_time_(msu.sim().Now()) {
  if (!shared_) {
    // A solo stream is a shared group of one: its own client is the member.
    members_.emplace_back(launch, spec);
    return;
  }
  members_.reserve(spec.shared_members.size());
  for (const SharedMemberSpec& member : spec.shared_members) {
    members_.emplace_back(member);
  }
}

void MsuStream::SetState(State state) {
  const bool was = IsPacketNeighbour();
  state_ = state;
  msu_->packet_neighbours_ += int64_t{IsPacketNeighbour()} - int64_t{was};
}

void MsuStream::SetFidelity(Fidelity fidelity) {
  const bool was = IsPacketNeighbour();
  fidelity_ = fidelity;
  msu_->packet_neighbours_ += int64_t{IsPacketNeighbour()} - int64_t{was};
}

void MsuStream::SetListed(bool listed) {
  const bool was = IsPacketNeighbour();
  listed_ = listed;
  msu_->packet_neighbours_ += int64_t{IsPacketNeighbour()} - int64_t{was};
}

SharedMemberState* MsuStream::FindMember(GroupId group) {
  for (SharedMemberState& member : members_) {
    if (member.group == group) {
      return &member;
    }
  }
  return nullptr;
}

SharedMemberState MsuStream::DetachMember(GroupId group) {
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    if (it->group == group) {
      SharedMemberState member = *it;
      members_.erase(it);
      return member;
    }
  }
  return SharedMemberState();
}

Co<void> MsuStream::SettleFanout() {
  while (fanout_member_ != kNoFanout) {
    co_await fanout_settled_.Wait();
  }
}

std::shared_ptr<MediaDatagramPayload> MsuStream::PayloadFor(
    const SharedMemberState& member, std::shared_ptr<MediaDatagramPayload>& payload) {
  auto datagram = &member == &members_.back()
                      ? std::move(payload)
                      : std::make_shared<MediaDatagramPayload>(*payload);
  datagram->stream = member.stream;
  datagram->seq = member.seq;
  return datagram;
}

bool MsuStream::NeedsDiskService() const {
  if (state_ == State::kStopped) {
    return false;
  }
  if (mode_ == Mode::kPlay) {
    // Flow-mode streams self-prefetch with aggregate reads inside FlowStep;
    // keeping them off the round-robin disk process avoids double reads.
    if (fidelity_ == Fidelity::kFlow) {
      return false;
    }
    return state_ == State::kRunning && file_ != nullptr && prefetched_.size() < 2 &&
           next_page_to_read_ < file_->image().page_count();
  }
  return builder_.pages_closed() > pages_written_ && !record_write_in_flight_;
}

Co<bool> MsuStream::ServiceDisk() {
  if (!NeedsDiskService()) {
    co_return false;
  }
  if (mode_ == Mode::kPlay) {
    const size_t target = next_page_to_read_;
    // Interval/prefix cache read-through: a hit skips the disk entirely —
    // that is the capacity win for trailing viewers and hot-title starts.
    const DataPage* cached = msu_->CacheLookup(file_->name(), target);
    if (cached != nullptr) {
      ++next_page_to_read_;
      prefetched_.push_back(cached);
      bytes_moved_ += kDataPageSize;
      buffers_changed_.NotifyAll();
      co_return true;
    }
    const SimTime service_start = msu_->sim().Now();
    auto page = co_await msu_->fs().ReadPage(file_, target);
    if (!page.ok()) {
      if (page.status().code() == StatusCode::kDataLoss) {
        // Unrecoverable media: end the stream rather than stall the viewer.
        CALLIOPE_LOG(kWarning, "msu") << "stream " << id_ << ": " << page.status().ToString();
        StopInternal();
        msu_->OnStreamFinished(this);
      }
      co_return false;
    }
    msu_->blocks_read_metric_.Add();
    msu_->trace_.Span(msu_->node().name() + ".disk" + std::to_string(disk_), "msu",
                      "read-block", service_start, "stream " + std::to_string(id_));
    // A seek may have moved the cursor while the read was in flight; only
    // keep the page if it is still the one the stream wants next.
    if (state_ == State::kStopped || target != next_page_to_read_) {
      co_return true;
    }
    msu_->CacheInsert(file_->name(), target, *page);
    ++next_page_to_read_;
    prefetched_.push_back(*page);
    bytes_moved_ += kDataPageSize;
    buffers_changed_.NotifyAll();
    co_return true;
  }
  // Recording: flush one closed page (write-behind).
  record_write_in_flight_ = true;
  const auto page_index = static_cast<int64_t>(pages_written_);
  const SimTime service_start = msu_->sim().Now();
  const Status written = co_await msu_->fs().WriteNextPage(file_, page_index);
  record_write_in_flight_ = false;
  if (written.ok()) {
    ++pages_written_;
    bytes_moved_ += kDataPageSize;
    msu_->blocks_written_metric_.Add();
    msu_->trace_.Span(msu_->node().name() + ".disk" + std::to_string(disk_), "msu",
                      "write-block", service_start, "stream " + std::to_string(id_));
  }
  record_pages_ready_.NotifyAll();
  co_return true;
}

SimTime MsuStream::CurrentMediaOffset() const {
  if (file_ == nullptr || file_->image().page_count() == 0) {
    return SimTime();
  }
  if (!prefetched_.empty() && play_record_ < prefetched_.front()->records.size()) {
    return prefetched_.front()->records[play_record_].delivery_offset;
  }
  if (play_page_ < file_->image().page_count()) {
    const DataPage& page = file_->image().page(play_page_);
    if (play_record_ < page.records.size()) {
      return page.records[play_record_].delivery_offset;
    }
    // A settled flow page is fully sent but not yet popped: the next record
    // is the following page's first.
    if (play_page_ + 1 < file_->image().page_count()) {
      return file_->image().page(play_page_ + 1).first_offset();
    }
    return page.last_offset();
  }
  return file_->image().duration();
}

Task MsuStream::PlaybackLoop() {
  while (state_ != State::kStopped) {
    if (state_ == State::kPaused || state_ == State::kStarting) {
      co_await buffers_changed_.Wait();
      continue;
    }
    MaybePromote();
    if (fidelity_ == Fidelity::kFlow) {
      co_await FlowStep();
      continue;
    }
    if (prefetched_.empty()) {
      if (file_ == nullptr || play_page_ >= file_->image().page_count()) {
        break;  // end of content
      }
      // Running with no prefetched page: the network process is starved
      // waiting on the disk (startup fill or a genuine double-buffer miss).
      msu_->buffer_stalls_metric_.Add();
      msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
      co_await buffers_changed_.Wait();
      continue;
    }
    const DataPage* page = prefetched_.front();
    if (play_record_ >= page->records.size()) {
      prefetched_.pop_front();
      ++play_page_;
      play_record_ = 0;
      msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
      continue;
    }
    const MediaPacket record = page->records[play_record_];
    if (rebase_needed_) {
      origin_ = record.delivery_offset;
      base_ = msu_->sim().Now();
      rebase_needed_ = false;
    }
    const SimTime deadline = base_ + (record.delivery_offset - origin_);
    const int64_t gen_before = position_gen_;
    if (deadline > msu_->sim().Now()) {
      // tsleep until the 10 ms tick at/after the deadline; a packet whose
      // deadline already passed (mid-burst) goes out back to back instead.
      co_await msu_->machine().timer().WaitUntil(deadline);
      if (state_ != State::kRunning || position_gen_ != gen_before) {
        continue;  // paused, stopped or repositioned while asleep
      }
      // Waking the network process costs a tsleep/wakeup switch. Timekeeping
      // uses the Pentium cycle counter — the paper's workaround for the
      // port-I/O stall bug — so no in/out stalls here.
      co_await msu_->machine().cpu().Run(msu_->machine().cpu().params().timer_wakeup_compute, 0);
      if (state_ != State::kRunning || position_gen_ != gen_before) {
        continue;
      }
    }
    // Per-packet MSU bookkeeping (schedule lookup, buffer accounting); this
    // is charged whether or not the process slept — it is what caps the MSU
    // at ~90% of the raw send baseline. Stored (variable-rate) delivery
    // schedules cost more per packet than computed constant-rate ones.
    SimTime per_packet = msu_->machine().cpu().params().msu_packet_compute;
    if (!protocol_->is_constant_rate()) {
      per_packet += msu_->machine().cpu().params().msu_stored_schedule_compute;
    }
    co_await msu_->machine().cpu().Run(per_packet, 0);
    if (state_ != State::kRunning || position_gen_ != gen_before) {
      continue;
    }
    // Fan the record out to every member: one real UDP datagram each, in the
    // member's own stream-id and sequence space. Split and quit wait in
    // SettleFanout, so only a stop (which may clear the list) changes members_
    // while a send is on the wire.
    auto payload = std::make_shared<MediaDatagramPayload>();
    payload->deadline = deadline;
    payload->packet = record;
    payload->is_control = protocol_->PlaysToControlPort(record);
    bool interrupted = false;
    for (size_t i = 0; i < members_.size(); ++i) {
      fanout_member_ = i;
      const int port = members_[i].client_udp_port + (payload->is_control ? 1 : 0);
      auto datagram = PayloadFor(members_[i], payload);
      const bool sent_ok =
          co_await msu_->node().SendUdp(members_[i].client_node, port, record.size,
                                        std::move(datagram));
      if (state_ == State::kStopped) {
        interrupted = true;
        break;
      }
      SharedMemberState& member = members_[i];
      ++member.seq;  // the datagram is on the wire: its seq is spent
      if (state_ != State::kRunning || position_gen_ != gen_before) {
        interrupted = true;
        break;
      }
      member.bytes_moved += record.size;
      ++member.packets_sent;
      if (!sent_ok) {
        // ENOBUFS: congestion counts as interesting — it restarts the quiet
        // window so the stream stays on the per-packet model while squeezed.
        NoteInteresting();
      }
      AccountSentPacket(msu_->sim().Now() - deadline);
    }
    fanout_member_ = kNoFanout;
    fanout_settled_.NotifyAll();
    if (interrupted) {
      continue;
    }
    ++play_record_;
  }
  if (state_ != State::kStopped) {
    StopInternal();
    msu_->OnStreamFinished(this);
  }
}

Status MsuStream::Pause() {
  if (mode_ != Mode::kPlay) {
    return FailedPreconditionError("cannot pause a recording");
  }
  if (state_ != State::kRunning) {
    return FailedPreconditionError("stream not running");
  }
  NoteInteresting();  // settles any in-flight flow page before the state flips
  SetState(State::kPaused);
  ++position_gen_;
  buffers_changed_.NotifyAll();
  return OkStatus();
}

Status MsuStream::Resume() {
  if (state_ == State::kStarting) {
    SetState(State::kRunning);
    buffers_changed_.NotifyAll();
    msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
    return OkStatus();
  }
  if (state_ != State::kPaused) {
    return FailedPreconditionError("stream not paused");
  }
  NoteInteresting();
  SetState(State::kRunning);
  ++position_gen_;
  rebase_needed_ = true;  // deadlines restart from the paused position
  buffers_changed_.NotifyAll();
  msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
  return OkStatus();
}

Co<Status> MsuStream::SeekTo(SimTime media_offset) {
  if (mode_ != Mode::kPlay) {
    co_return FailedPreconditionError("cannot seek a recording");
  }
  if (file_ == nullptr) {
    co_return FailedPreconditionError("no file attached");
  }
  // Demote before the tree walk: while the internal-page reads are in
  // flight the stream keeps delivering from its old position, and the
  // per-packet model is the one whose mid-seek behavior we guarantee.
  NoteInteresting();
  const SimTime seek_start = msu_->sim().Now();
  auto target = file_->image().Seek(media_offset);
  if (!target.ok()) {
    co_return target.status();
  }
  // Charge the internal-page reads of the tree walk.
  for (const int64_t internal_page : target->internal_pages_read) {
    auto read = co_await msu_->fs().ReadPage(file_, static_cast<size_t>(internal_page));
    if (!read.ok()) {
      co_return read.status();
    }
  }
  msu_->ibtree_reads_metric_.Add(static_cast<int64_t>(target->internal_pages_read.size()));
  msu_->trace_.Span(msu_->node().name(), "msu", "seek", seek_start,
                    "stream " + std::to_string(id_) + " -> " +
                        std::to_string(media_offset.millis()) + "ms");
  prefetched_.clear();
  play_page_ = target->page_index;
  play_record_ = target->record_index;
  next_page_to_read_ = target->page_index;
  rebase_needed_ = true;
  ++position_gen_;
  buffers_changed_.NotifyAll();
  msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
  co_return OkStatus();
}

Co<Status> MsuStream::SwitchVariant(Variant variant) {
  if (mode_ != Mode::kPlay) {
    co_return FailedPreconditionError("cannot fast-scan a recording");
  }
  if (variant == variant_) {
    co_return OkStatus();
  }
  NoteInteresting();  // settle before file_ is swapped out from under the page
  const std::string* target_name = nullptr;
  switch (variant) {
    case Variant::kNormal:
      target_name = &file_name_;
      break;
    case Variant::kFastForward:
      target_name = &ff_file_;
      break;
    case Variant::kFastBackward:
      target_name = &fb_file_;
      break;
  }
  if (target_name->empty()) {
    co_return FailedPreconditionError("content has no fast-scan variant loaded");
  }
  auto target_file = msu_->fs().Lookup(*target_name);
  if (!target_file.ok()) {
    co_return target_file.status();
  }

  // Map the current media position between the normal-rate and filtered
  // timelines. The filtered file covers the same content in 1/K of the time
  // (every K-th frame kept), so positions scale by the duration ratio.
  const SimTime old_duration = file_->image().duration();
  const SimTime new_duration = (*target_file)->image().duration();
  SimTime position = CurrentMediaOffset();
  if (variant_ == Variant::kFastBackward) {
    position = old_duration - position;  // fb timeline runs backwards
  }
  double scale = 1.0;
  if (old_duration > SimTime()) {
    scale = new_duration.seconds() / old_duration.seconds();
  }
  SimTime mapped = SimTime::SecondsF(position.seconds() * scale);
  if (variant == Variant::kFastBackward) {
    mapped = new_duration - mapped;
  }
  mapped = std::clamp(mapped, SimTime(), new_duration);

  file_ = *target_file;
  variant_ = variant;
  CALLIOPE_CO_RETURN_IF_ERROR(co_await SeekTo(mapped));
  co_return OkStatus();
}

void MsuStream::OnRecordedPacket(const MediaPacket& packet) {
  if (mode_ != Mode::kRecord || state_ != State::kRunning) {
    return;
  }
  if (!record_started_) {
    record_started_ = true;
    record_start_ = msu_->sim().Now();
  }
  const SimTime arrival_offset = msu_->sim().Now() - record_start_;

  PacketSequence interleave;
  protocol_->OnRecordPacket(packet, arrival_offset, interleave);
  for (MediaPacket& control : interleave) {
    control.delivery_offset = std::max(control.delivery_offset, last_stored_offset_);
    last_stored_offset_ = control.delivery_offset;
    (void)builder_.Add(control);
  }

  MediaPacket stored = packet;
  stored.delivery_offset =
      std::max(protocol_->RecordDeliveryOffset(packet, arrival_offset), last_stored_offset_);
  last_stored_offset_ = stored.delivery_offset;
  if (Status added = builder_.Add(stored); !added.ok()) {
    CALLIOPE_LOG(kWarning, "msu") << "record drop: " << added.ToString();
    return;
  }
  if (NeedsDiskService()) {
    msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
  }
}

Co<Status> MsuStream::FinishRecording() {
  SetState(State::kStopped);
  // Wait out any write the disk process has in flight.
  while (record_write_in_flight_) {
    co_await record_pages_ready_.Wait();
  }
  IbTreeFile image = builder_.Finish();
  // Drain the remaining closed pages.
  while (pages_written_ < image.page_count()) {
    const Status written =
        co_await msu_->fs().WriteNextPage(file_, static_cast<int64_t>(pages_written_));
    if (!written.ok()) {
      co_return written;
    }
    ++pages_written_;
    bytes_moved_ += kDataPageSize;
  }
  co_return msu_->fs().CommitRecording(file_, std::move(image));
}

Co<Status> MsuStream::Quit() {
  if (state_ == State::kStopped) {
    co_return OkStatus();
  }
  Status result = OkStatus();
  if (mode_ == Mode::kRecord) {
    result = co_await FinishRecording();
    if (result.ok()) {
      msu_->FlushMetadataBehind();
    } else if (file_ != nullptr && !file_->committed()) {
      // The recording could not be sealed; a partial file with no IB-tree is
      // unreadable, so free its blocks. The termination note then reports
      // record_committed=false and the Coordinator refunds the full estimate.
      (void)msu_->fs().Delete(file_name_);
      file_ = nullptr;
    }
  }
  StopInternal();
  msu_->OnStreamFinished(this);
  co_return result;
}

void MsuStream::StopInternal() {
  // Settle any in-flight flow page first: records whose delivery instants
  // already passed were sent in the per-packet model, so the analytic model
  // must count them before the page is dropped (quit, crash, data loss).
  NoteInteresting();
  SetState(State::kStopped);
  ++position_gen_;
  prefetched_.clear();
  buffers_changed_.NotifyAll();
  record_pages_ready_.NotifyAll();
}

void MsuStream::AccountSentPacket(SimTime lateness) {
  lateness_.Record(lateness);
  ++packets_sent_;
  if (packets_sent_ == 1) {
    msu_->trace_.Instant(msu_->node().name(), "msu", "first-packet",
                         "stream " + std::to_string(id_));
  }
  msu_->packets_sent_metric_.Add();
  if (lateness > SimTime()) {
    msu_->packets_late_metric_.Add();
  }
  msu_->send_lateness_us_.Record(std::max<int64_t>(lateness.micros(), 0));
  if (msu_->qos_ != nullptr) {
    msu_->qos_->RecordLateness(lateness);
  }
}

}  // namespace calliope

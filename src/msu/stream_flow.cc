// Flow-fidelity delivery path (DESIGN.md §5.5).
//
// The per-packet model in stream.cc wakes the network process once per packet
// (a 10 ms coarse-timer sleep, per-packet CPU, one UDP send). For a
// steady-state constant-rate stream every one of those events is predictable
// from the page's delivery schedule, so the flow model advances the stream
// with ONE event per buffer refill: sleep to the front page's last deadline,
// charge the page's per-packet CPU in a lump, send one aggregate chunk, and
// synthesize the same byte/lateness accounting analytically
// (lateness_i = coarse_tick(deadline_i) - deadline_i).
//
// Anything interesting — a VCR op, admission churn on the disk, a disk
// fault, ENOBUFS, a stop — demotes the stream back to packet fidelity via
// NoteInteresting(), which first settles the in-flight page: records whose
// delivery instants have already passed are accounted and shipped, so the
// demotion loses nothing the per-packet model would have sent.
#include <algorithm>

#include "src/msu/msu.h"
#include "src/util/logging.h"

namespace calliope {

namespace {
// Chunk cap while a per-packet stream shares the MSU: one aggregated send
// then occupies the delivery wire for only a few packet times (8 records ≈
// 32 KB ≈ 3 ms on FDDI) instead of a whole page (≈ 21 ms), so the
// packet-fidelity neighbour never queues behind a page-sized frame.
constexpr size_t kFlowChunkRecordsShared = 8;
// "Unlimited" cap that still adds safely to a record index.
constexpr size_t kFlowChunkRecordsAlone = size_t{1} << 32;
}  // namespace

size_t MsuStream::FlowChunkCap() const {
  // When every co-resident stream is also in flow mode nobody can observe
  // per-packet wire interleave, and the whole page goes out as one frame —
  // the big event win. Any packet-fidelity neighbour (just admitted, mid-VCR,
  // demoted, recording) brings the cap down.
  const int64_t others = msu_->packet_neighbours_ - int64_t{IsPacketNeighbour()};
  return others > 0 ? kFlowChunkRecordsShared : kFlowChunkRecordsAlone;
}

bool MsuStream::FlowEligible() const {
  // Steady-state playback with a computed (constant-rate) schedule and no
  // control-port interleave: the analytic model can reproduce exactly what
  // the per-packet loop would do. RTP-style protocols stay per-packet.
  if (mode_ != Mode::kPlay || state_ != State::kRunning || file_ == nullptr ||
      !protocol_->is_constant_rate() || protocol_->uses_control_port()) {
    return false;
  }
  // Content must remain: at end of content FlowStep hands back to the packet
  // loop, whose end-of-content break owns termination — promoting again there
  // would bounce straight back, at the same instant, forever.
  return !prefetched_.empty() || play_page_ < file_->image().page_count();
}

void MsuStream::MaybePromote() {
  if (msu_->params().fidelity.default_mode != Fidelity::kFlow ||
      fidelity_ == Fidelity::kFlow || !FlowEligible()) {
    return;
  }
  if (msu_->sim().Now() - last_interesting_ < msu_->params().fidelity.quiet_window) {
    return;
  }
  SetFidelity(Fidelity::kFlow);
  msu_->flow_promotions_metric_.Add();
}

void MsuStream::NoteInteresting() {
  last_interesting_ = msu_->sim().Now();
  if (fidelity_ != Fidelity::kFlow) {
    return;
  }
  SettleFlowPage();
  SetFidelity(Fidelity::kPacket);
  msu_->flow_demotions_metric_.Add();
  // Wake the flow sleep (it re-checks fidelity_) and put the stream back on
  // the round-robin disk process, which now owns its prefetching again.
  buffers_changed_.NotifyAll();
  msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
}

std::shared_ptr<MediaDatagramPayload> MsuStream::BuildFlowChunk(size_t first, size_t limit,
                                                                Bytes* total_out) {
  const DataPage* page = prefetched_.front();
  auto payload = std::make_shared<MediaDatagramPayload>();
  payload->flow_sent_at = msu_->sim().Now();
  payload->flow_count = static_cast<int64_t>(limit - first);
  payload->flow_records.reserve(limit - first);
  // One sent packet per record per member — the same counts the packet-mode
  // fan-out loop produces.
  const size_t fanout = members_.size();
  Bytes total;
  for (size_t i = first; i < limit; ++i) {
    const MediaPacket& record = page->records[i];
    const SimTime deadline = base_ + (record.delivery_offset - origin_);
    // The per-packet loop would have slept to the coarse tick at/after the
    // deadline and sent there; the tick rounding dominates its lateness.
    const SimTime lateness = msu_->machine().timer().NextTickAtOrAfter(deadline) - deadline;
    payload->flow_records.push_back(
        MediaDatagramPayload::FlowRecord{deadline, record.delivery_offset, record.size});
    total += record.size;
    for (size_t f = 0; f < fanout; ++f) {
      AccountSentPacket(lateness);
    }
  }
  payload->deadline = payload->flow_records.front().deadline;
  payload->packet = page->records[first];
  *total_out = total;
  return payload;
}

void MsuStream::SettleFlowPage() {
  if (!flow_page_in_flight_ || prefetched_.empty()) {
    return;
  }
  const DataPage* page = prefetched_.front();
  const SimTime now = msu_->sim().Now();
  size_t limit = play_record_;
  while (limit < page->records.size() &&
         base_ + (page->records[limit].delivery_offset - origin_) <= now) {
    ++limit;
  }
  if (limit == play_record_) {
    return;
  }
  const auto count = static_cast<int64_t>(limit - play_record_);
  Bytes total;
  auto payload = BuildFlowChunk(play_record_, limit, &total);
  play_record_ = limit;
  msu_->flow_chunks_metric_.Add();
  msu_->flow_packets_metric_.Add(count);
  // Fire-and-forget: the records' delivery instants have already passed and
  // the caller (a VCR handler, the fault observer, StopInternal) must not
  // block on the chunk clearing the NIC. Members still waiting for an
  // in-flight chunk get this one after it.
  const size_t waiting =
      fanout_member_ == kNoFanout ? members_.size() : fanout_member_ + 1;
  for (size_t i = 0; i < waiting && i < members_.size(); ++i) {
    SendChunkNow(members_[i], CommitChunk(members_[i], payload, count, total), count, total);
  }
  if (waiting < members_.size()) {
    SendChunkAfterFanout(waiting, std::move(payload), count, total);
  }
}

Task MsuStream::SendChunkAfterFanout(size_t first, std::shared_ptr<MediaDatagramPayload> payload,
                                     int64_t count, Bytes total) {
  // Resumes ahead of any split or quit waiting on the same fan-out: those
  // demote the stream before they wait, so none can have started waiting
  // before this settle, and members_ is still the list the fan-out served.
  co_await SettleFanout();
  if (state_ == State::kStopped) {
    co_return;
  }
  for (size_t i = first; i < members_.size(); ++i) {
    SendChunkNow(members_[i], CommitChunk(members_[i], payload, count, total), count, total);
  }
}

void MsuStream::SendChunkNow(const SharedMemberState& member,
                             std::shared_ptr<MediaDatagramPayload> datagram, int64_t count,
                             Bytes total) {
  [](Msu* msu, std::string dst, int port, Bytes size, int64_t n,
     std::shared_ptr<MediaDatagramPayload> chunk) -> Task {
    co_await msu->node().SendUdpFlow(std::move(dst), port, size, n, std::move(chunk));
  }(msu_, member.client_node, member.client_udp_port, total, count, std::move(datagram));
}

std::shared_ptr<MediaDatagramPayload> MsuStream::CommitChunk(
    SharedMemberState& member, std::shared_ptr<MediaDatagramPayload>& payload, int64_t count,
    Bytes total) {
  auto chunk = PayloadFor(member, payload);
  member.seq += count;
  member.bytes_moved += total;
  member.packets_sent += count;
  return chunk;
}

Co<void> MsuStream::FlowStep() {
  // Refill: one aggregate read of up to two pages ("deliver N bytes over the
  // service window") keeps the stream's footprint at the same two buffers the
  // admission test charged, while replacing two seeks with one.
  if (prefetched_.empty()) {
    if (file_ == nullptr || play_page_ >= file_->image().page_count()) {
      // End of content: hand back to the packet loop, whose end-of-content
      // break owns stream termination.
      SetFidelity(Fidelity::kPacket);
      co_return;
    }
    const size_t first = next_page_to_read_;
    const size_t want = std::min<size_t>(2, file_->image().page_count() - first);
    // Cache read-through mirrors ServiceDisk: consume the run of cached pages
    // from the cursor; the first miss falls back to one aggregate disk read.
    size_t cached_count = 0;
    while (cached_count < want) {
      const DataPage* cached = msu_->CacheLookup(file_->name(), first + cached_count);
      if (cached == nullptr) {
        break;
      }
      prefetched_.push_back(cached);
      ++cached_count;
    }
    if (cached_count > 0) {
      next_page_to_read_ += cached_count;
      bytes_moved_ += kDataPageSize * static_cast<int64_t>(cached_count);
      co_return;  // loop re-enters with (partially) full buffers
    }
    const SimTime service_start = msu_->sim().Now();
    auto pages = co_await msu_->fs().ReadPages(file_, first, want);
    if (state_ == State::kStopped) {
      co_return;
    }
    if (!pages.ok()) {
      if (pages.status().code() == StatusCode::kDataLoss) {
        CALLIOPE_LOG(kWarning, "msu") << "stream " << id_ << ": " << pages.status().ToString();
        StopInternal();
        msu_->OnStreamFinished(this);
        co_return;
      }
      // Transient read error: drop to packet fidelity and let the disk
      // process's retry semantics handle it.
      NoteInteresting();
      co_return;
    }
    if (first != next_page_to_read_) {
      co_return;  // a seek moved the cursor while the read was in flight
    }
    next_page_to_read_ += want;
    for (size_t i = 0; i < pages->size(); ++i) {
      msu_->CacheInsert(file_->name(), first + i, (*pages)[i]);
      prefetched_.push_back((*pages)[i]);
    }
    bytes_moved_ += kDataPageSize * static_cast<int64_t>(want);
    msu_->blocks_read_metric_.Add(static_cast<int64_t>(want));
    msu_->flow_refills_metric_.Add();
    msu_->trace_.Span(msu_->node().name() + ".disk" + std::to_string(disk_), "msu",
                      "read-blocks", service_start, "stream " + std::to_string(id_));
    co_return;  // loop re-enters with full buffers
  }

  const DataPage* page = prefetched_.front();
  if (play_record_ >= page->records.size()) {
    prefetched_.pop_front();
    ++play_page_;
    play_record_ = 0;
    co_return;
  }
  if (rebase_needed_) {
    origin_ = page->records[play_record_].delivery_offset;
    base_ = msu_->sim().Now();
    rebase_needed_ = false;
  }
  const SimTime last_deadline = base_ + (page->records.back().delivery_offset - origin_);
  const SimTime wake_at = msu_->machine().timer().NextTickAtOrAfter(last_deadline);
  const int64_t gen_before = position_gen_;
  // Interruptible sleep to the page's last deadline: ONE event per page
  // instead of one per packet. NoteInteresting() wakes it early via
  // buffers_changed_, and the cancelable wakeup leaves no stale timer event
  // behind when that happens.
  flow_page_in_flight_ = true;
  if (wake_at > msu_->sim().Now()) {
    EventToken wake =
        msu_->sim().ScheduleCancelableAt(wake_at, [this] { buffers_changed_.NotifyAll(); });
    while (msu_->sim().Now() < wake_at && state_ == State::kRunning &&
           position_gen_ == gen_before && fidelity_ == Fidelity::kFlow) {
      co_await buffers_changed_.Wait();
    }
    wake.Cancel();
  }
  // flow_page_in_flight_ stays set through the sends below: an interruption
  // while a chunk is on the wire settles the rest of the page (all its
  // deadlines have passed) instead of leaving it for the packet loop to send
  // as a late burst.
  if (state_ != State::kRunning || position_gen_ != gen_before ||
      fidelity_ != Fidelity::kFlow) {
    flow_page_in_flight_ = false;
    co_return;  // a VCR op / fault / demotion intervened (the page settled there)
  }
  co_await msu_->machine().cpu().Run(msu_->machine().cpu().params().timer_wakeup_compute, 0);
  if (state_ != State::kRunning || position_gen_ != gen_before ||
      fidelity_ != Fidelity::kFlow) {
    flow_page_in_flight_ = false;
    co_return;
  }
  // Batched per-packet bookkeeping: the same compute the packet loop charges,
  // paid in one lump at the page boundary. Eligibility implies a computed
  // constant-rate schedule, so there is no stored-schedule surcharge.
  co_await msu_->machine().cpu().Run(
      msu_->machine().cpu().params().msu_packet_compute *
          static_cast<int64_t>(page->records.size() - play_record_),
      0);
  // Chunked sends, each re-reading play_record_: SettleFlowPage may have
  // advanced it while a send (or the compute charge) was suspended.
  while (play_record_ < page->records.size() && state_ == State::kRunning &&
         position_gen_ == gen_before && fidelity_ == Fidelity::kFlow) {
    const size_t first_record = play_record_;
    const size_t limit = std::min(first_record + FlowChunkCap(), page->records.size());
    const auto count = static_cast<int64_t>(limit - first_record);
    Bytes total;
    auto payload = BuildFlowChunk(first_record, limit, &total);
    play_record_ = limit;
    msu_->flow_chunks_metric_.Add();
    msu_->flow_packets_metric_.Add(count);
    // Fan the chunk out per member in its own stream-id/sequence space.
    // Accounting commits before each send. The chunk is already counted for
    // every member, so only a stop ends the fan-out early; any other
    // interruption settles the rest of the page through NoteInteresting and
    // ends the page after this chunk.
    for (size_t i = 0; i < members_.size(); ++i) {
      fanout_member_ = i;
      SharedMemberState& member = members_[i];
      auto datagram = CommitChunk(member, payload, count, total);
      // Blocking admission: pacing is already folded into the refill
      // schedule, so an ENOBUFS retries every 1 ms rather than dropping a
      // whole page.
      co_await msu_->node().SendUdpFlow(member.client_node, member.client_udp_port, total,
                                        count, std::move(datagram));
      if (state_ == State::kStopped) {
        break;
      }
    }
    fanout_member_ = kNoFanout;
    fanout_settled_.NotifyAll();
  }
  flow_page_in_flight_ = false;
}

}  // namespace calliope

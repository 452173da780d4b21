/**
 * @file
 * Flit-level crossbar switch with virtual output queues and a
 * single-iteration iSLIP allocator.
 *
 * Each input holds one VOQ per output. Every NoC cycle the allocator
 * matches free inputs to free outputs (request/grant/accept with
 * rotating priorities); a matched packet then occupies its input and
 * output ports for `flits` NoC cycles and appears in the output queue
 * after the router pipeline latency. The crossbar runs at a rational
 * ratio of the core clock (0.5 at the platform's 700 MHz; 1.0 when the
 * paper's *Boost* doubles NoC#1 frequency).
 *
 * Storage is fixed at construction. Each input owns `inputQueueCap`
 * packet slots; its VOQs are singly linked lists threaded through
 * those slots, and the unused ones form the input's free list. Each
 * output queue is a ring of `outputQueueCap` slots. Requests, free
 * inputs and grants are 128-bit port masks, so the allocator finds
 * each round-robin winner with a find-first-set.
 */

#ifndef DCL1_NOC_CROSSBAR_HH
#define DCL1_NOC_CROSSBAR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/packet.hh"
#include "stats/stats.hh"

namespace dcl1::noc
{

/** Static configuration of a crossbar. */
struct XbarParams
{
    std::string name = "xbar";
    std::uint32_t numInputs = 1;
    std::uint32_t numOutputs = 1;
    std::uint32_t inputQueueCap = 16; ///< packets buffered per input
    std::uint32_t outputQueueCap = 4; ///< packets buffered per output
    std::uint32_t routerLatency = 2;  ///< pipeline depth, NoC cycles
    double clockRatio = 0.5;          ///< NoC cycles per core cycle
};

/** See file comment. */
class Crossbar
{
  public:
    explicit Crossbar(const XbarParams &params);

    /** Room for another packet at @p input? */
    bool canInject(std::uint32_t input) const;

    /** Inject @p pkt (pkt.src/pkt.dst must be set; checked). */
    void inject(Packet pkt);

    /** Pop a delivered packet at @p output, if any. */
    std::optional<Packet> eject(std::uint32_t output);

    /** Peek whether @p output has a delivered packet. */
    bool hasEjectable(std::uint32_t output) const;

    /** Advance one *core* cycle (internally ticks on the clock ratio). */
    void tick();

    /** Any buffered or in-flight packets? */
    bool busy() const;

    const XbarParams &params() const { return params_; }

    /// @name Statistics
    /// @{
    stats::StatGroup &statGroup() { return statGroup_; }
    std::uint64_t packetsDelivered() const { return delivered_.value(); }
    std::uint64_t totalFlits() const { return flits_.value(); }
    /** Flits delivered through @p output (for link utilization). */
    std::uint64_t outputFlits(std::uint32_t output) const;
    /** Utilization of @p output's link: busy NoC cycles / NoC cycles. */
    double outputUtilization(std::uint32_t output) const;
    void resetStats();
    /// @}

    /** Packets buffered or in flight anywhere inside the switch. */
    std::size_t pendingPackets() const;

    /**
     * Verify internal bookkeeping (DCL1_CHECK builds): every VOQ list
     * stays inside its input's slots, holds only packets for its
     * output and ends at its tail; free plus queued slots fill each
     * input's share; request bits mirror VOQ non-emptiness; per-output
     * reservations match in-transit packets and output-queue bounds;
     * and packet/flit conservation (everything injected is either
     * delivered or still inside). panic()s on violation.
     */
    void checkInvariants() const;

  private:
    /** A set of up to 128 ports, bit p = port p. */
    using PortMask = std::array<std::uint64_t, 2>;

    /** End of a slot list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** A VOQ or free-list slot of the input pool. */
    struct Slot
    {
        Packet pkt;
        std::uint32_t next = kNil; ///< next slot of the same list
    };

    /** A VOQ: the oldest and newest slot of its list. */
    struct Voq
    {
        std::uint32_t head = kNil; ///< kNil when empty
        std::uint32_t tail = kNil;
    };

    /** An output queue: a ring of outputQueueCap packets. */
    struct OutQueue
    {
        std::uint32_t head = 0; ///< ring index of the oldest packet
        std::uint32_t size = 0;
    };

    void nocTick();
    void allocate();

    std::size_t voqIndex(std::uint32_t in, std::uint32_t out) const
    {
        return std::size_t(in) * params_.numOutputs + out;
    }

    /** Ring slot of @p out's queue @p pos packets past its head. */
    Packet &outSlot(std::uint32_t out, std::uint32_t pos);

    XbarParams params_;

    std::vector<Slot> slots_;                   ///< I * inputQueueCap
    std::vector<std::uint32_t> freeHead_;       ///< per input
    std::vector<Voq> voq_;                      ///< I * O
    std::vector<std::uint32_t> inputOcc_;       ///< packets per input
    std::vector<PortMask> reqBits_;             ///< inputs, per output
    std::vector<PortMask> grants_;              ///< outputs, per input
    std::vector<std::uint32_t> grantPtr_;       ///< per output (iSLIP)
    std::vector<std::uint32_t> acceptPtr_;      ///< per input (iSLIP)
    std::vector<Cycle> inputFreeAt_;            ///< NoC cycles
    std::vector<Cycle> outputFreeAt_;
    std::vector<std::uint32_t> outReserved_;    ///< in-transit per output

    /** Packets traversing the switch: ready NoC cycle + packet. */
    std::vector<std::pair<Cycle, Packet>> inTransit_;

    std::vector<Packet> outRing_;               ///< O * outputQueueCap
    std::vector<OutQueue> outQ_;

    Cycle nocCycle_ = 0;
    double phase_ = 0.0;

    stats::StatGroup statGroup_;
    stats::Scalar delivered_;
    stats::Scalar flits_;
    stats::Scalar latencySum_;
    std::vector<std::uint64_t> outputFlits_;
    Cycle statStartCycle_ = 0;

    /// @name Conservation counters (DCL1_CHECK; never stat-reset)
    /// @{
    std::uint64_t chkInjectedPkts_ = 0;
    std::uint64_t chkInjectedFlits_ = 0;
    std::uint64_t chkDeliveredPkts_ = 0;
    std::uint64_t chkDeliveredFlits_ = 0;
    std::uint64_t chkEjectedPkts_ = 0;
    /// @}
};

} // namespace dcl1::noc

#endif // DCL1_NOC_CROSSBAR_HH

/**
 * @file
 * One direction of an interconnect, addressed by endpoint.
 *
 * A Net owns its crossbars, each tagged with its NoC level (1 = NoC#1,
 * the core side; 2 = NoC#2 or the monolithic network, the memory
 * side), and resolves every source and destination endpoint at
 * construction to the (crossbar, port) it attaches at. Cores, DC-L1
 * nodes and L2 slices are addressed by index, and every per-endpoint
 * call is a table lookup; only tick() is virtual.
 *
 * The single-stage Net built from NetParams covers the monolithic
 * baseline crossbars and all four DC-L1 networks. A multi-stage fabric
 * (CdXbarNet) derives from Net: its constructor adds the crossbars and
 * fills the tables, and its tick() override moves packets between
 * stages.
 */

#ifndef DCL1_NOC_NET_HH
#define DCL1_NOC_NET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/request.hh"
#include "noc/crossbar.hh"

namespace dcl1::noc
{

/** Geometry of a single-stage Net: `count` identical crossbars. */
struct NetParams
{
    /** Crossbar i is named name + i, or just name when !indexed. */
    std::string name = "net";
    bool indexed = false;
    std::uint32_t count = 1;
    std::uint32_t inputs = 1;  ///< input ports per crossbar
    std::uint32_t outputs = 1; ///< output ports per crossbar
    double clockRatio = 0.5;
    std::uint32_t level = 2;   ///< 1 = core side, 2 = memory side
    /**
     * Attachment of endpoint e on both sides. Blocked (false): crossbar
     * e / ports, port e % ports, so consecutive endpoints share a
     * crossbar (NoC#1 clusters). Interleaved (true): crossbar e % count,
     * port e / count (partitioned NoC#2, one crossbar per home index).
     */
    bool interleaved = false;
};

/** See file comment. */
class Net
{
  public:
    /** Where an endpoint attaches. */
    struct Port
    {
        Crossbar *xbar = nullptr;
        std::uint32_t port = 0;
    };

    /** A member crossbar and its NoC level. */
    struct Member
    {
        std::unique_ptr<Crossbar> xbar;
        std::uint32_t level = 2;
    };

    explicit Net(const NetParams &params);
    virtual ~Net() = default;

    Net(const Net &) = delete;
    Net &operator=(const Net &) = delete;

    std::uint32_t numSources() const
    {
        return static_cast<std::uint32_t>(injectAt_.size());
    }
    std::uint32_t numDests() const
    {
        return static_cast<std::uint32_t>(ejectAt_.size());
    }

    /** Room for another packet from source endpoint @p src? */
    bool
    canInject(std::uint32_t src) const
    {
        const Port &at = injectAt_[src];
        return at.xbar->canInject(at.port);
    }

    /** Send @p req from source @p src to destination endpoint @p dst. */
    void inject(std::uint32_t src, std::uint32_t dst,
                mem::MemRequestPtr req, std::uint32_t flits);

    /** Has a packet arrived at destination endpoint @p dst? */
    bool
    hasEjectable(std::uint32_t dst) const
    {
        const Port &at = ejectAt_[dst];
        return at.xbar->hasEjectable(at.port);
    }

    /** Pop the request delivered at @p dst; null when none arrived. */
    mem::MemRequestPtr eject(std::uint32_t dst);

    /** Advance one core cycle. */
    virtual void tick();

    /** Any buffered or in-flight packets? */
    bool busy() const;

    void resetStats();

    /**
     * Audit every member crossbar plus end-to-end conservation
     * (DCL1_CHECK builds): every packet injected into the net was
     * ejected or is still inside, and left at the endpoint it was
     * addressed to. panic()s on violation.
     */
    void checkInvariants() const;

    /** Member crossbars, in construction (and tick) order. */
    const std::vector<Member> &xbars() const { return xbars_; }

    /** The crossbar output feeding destination endpoint @p dst. */
    const Port &ejectPort(std::uint32_t dst) const { return ejectAt_[dst]; }

  protected:
    /** For subclasses, which add crossbars and fill the tables. */
    explicit Net(std::string name) : name_(std::move(name)) {}

    Crossbar &addXbar(const XbarParams &params, std::uint32_t level);

    std::string name_;
    std::vector<Member> xbars_;
    std::vector<Port> injectAt_; ///< per source endpoint
    std::vector<Port> ejectAt_;  ///< per destination endpoint
    /** Per destination: the output port a packet requests first. */
    std::vector<std::uint32_t> firstHop_;

  private:
    /// @name Net-level conservation counters (DCL1_CHECK)
    /// @{
    std::uint64_t chkInjectedPkts_ = 0;
    std::uint64_t chkEjectedPkts_ = 0;
    /// @}
};

} // namespace dcl1::noc

#endif // DCL1_NOC_NET_HH

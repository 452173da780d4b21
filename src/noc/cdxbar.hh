/**
 * @file
 * Hierarchical two-stage crossbar network (CDXBar, after Zhao et al.
 * [10], [20]) used in the paper's Figure 19a sensitivity study.
 *
 * Request direction (Concentrate): Z local N*K crossbars concentrate
 * core traffic onto Z*K trunk links feeding one (Z*K) x M global
 * crossbar. Reply direction (Distribute) mirrors it: one M x (Z*K)
 * global crossbar fans out to Z local K*N crossbars. Stage clock
 * ratios are independent so the paper's CDXBar+2xNoC1 (local stage
 * doubled) and CDXBar+2xNoC (both doubled) variants can be modelled.
 */

#ifndef DCL1_NOC_CDXBAR_HH
#define DCL1_NOC_CDXBAR_HH

#include <string>
#include <vector>

#include "noc/net.hh"

namespace dcl1::noc
{

/** Traffic direction through the hierarchy. */
enum class CdxDirection { Concentrate, Distribute };

/** Geometry of a CdXbarNet. */
struct CdxParams
{
    std::string name = "cdxbar";
    CdxDirection direction = CdxDirection::Concentrate;
    std::uint32_t clusters = 10;     ///< Z
    std::uint32_t perCluster = 8;    ///< N endpoints per local crossbar
    std::uint32_t trunksPerCluster = 4; ///< K
    std::uint32_t globalPorts = 32;  ///< M (far-side port count)
    double localClockRatio = 0.5;
    double globalClockRatio = 0.5;
};

/**
 * See file comment. Concentrate nets take cores as sources and slices
 * as destinations; Distribute nets the reverse.
 */
class CdXbarNet : public Net
{
  public:
    explicit CdXbarNet(const CdxParams &params);

    /** Advance both stages, then move packets across the trunks. */
    void tick() override;

  private:
    /** A trunk link: an output of one stage feeding the next stage. */
    struct Trunk
    {
        Port from;
        Port to;
    };

    std::vector<Trunk> trunks_;
    Cycle tickCount_ = 0;
};

} // namespace dcl1::noc

#endif // DCL1_NOC_CDXBAR_HH

/**
 * @file
 * Lightweight statistics framework.
 *
 * Components own Scalar / Distribution stats registered in a StatGroup.
 * Groups form a tree; the root can be reset after warmup and dumped at
 * the end of simulation. Hot-path updates are plain integer adds.
 */

#ifndef DCL1_STATS_STATS_HH
#define DCL1_STATS_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dcl1::stats
{

/**
 * Shortest-round-trip decimal rendering of a double (std::to_chars),
 * byte-stable across locales and stream precision defaults. All stat
 * output (dump, dumpJson, timelines) funnels doubles through here.
 */
std::string formatDouble(double v);

/** A named 64-bit accumulating counter. */
class Scalar
{
  public:
    Scalar() = default;

    void inc(std::uint64_t v = 1) { value_ += v; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running distribution: count, sum, min, max and a fixed-width linear
 * histogram. Bucket width is chosen at construction.
 */
class Distribution
{
  public:
    /**
     * @param bucket_width width of each histogram bucket (>= 1)
     * @param num_buckets number of buckets; samples beyond the last
     *        bucket land in an overflow bucket
     */
    explicit Distribution(std::uint64_t bucket_width = 16,
                          std::uint32_t num_buckets = 32);

    /** Record one sample. */
    void sample(std::uint64_t v);

    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double
    mean() const
    {
        return count_ ? double(sum_) / double(count_) : 0.0;
    }

    /** Histogram access: bucket i covers [i*w, (i+1)*w). */
    std::uint64_t bucket(std::uint32_t i) const { return buckets_[i]; }
    std::uint32_t numBuckets() const { return std::uint32_t(buckets_.size()); }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }

    /** p-th percentile (0..100) estimated from the histogram. */
    double percentile(double p) const;

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A named collection of stats. Groups register their children and can
 * reset/dump recursively. Registration stores pointers; the owning
 * component must outlive the group (they are members of the same object
 * in practice).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar stat under @p name. */
    void addScalar(const std::string &name, Scalar *s);

    /** Register a distribution stat under @p name. */
    void addDistribution(const std::string &name, Distribution *d);

    /** Register a child group. */
    void addChild(StatGroup *child);

    /** Reset all stats in this group and its children. */
    void reset();

    /** Dump "group.stat value" lines, depth-first. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Dump the tree as one JSON object: scalars as integers,
     * distributions as {count, sum, min, max, mean, p50, p95, p99,
     * bucket_width, buckets, overflow}, children nested by name.
     * Ordering follows registration order, so output is deterministic.
     */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /**
     * Look up a registered scalar by name; nullptr if absent. A name
     * without a matching flat entry is resolved as a dotted path into
     * child groups ("noc.req.flits"). Child names may themselves
     * contain dots (the crossbars register as "noc.req" etc.), so the
     * path is matched against whole child names, never split blindly
     * at the first dot.
     */
    const Scalar *findScalar(const std::string &name) const;

    /** Distribution lookup with the same flat-then-dotted rules. */
    const Distribution *findDistribution(const std::string &name) const;

  private:
    std::string name_;
    std::vector<std::pair<std::string, Scalar *>> scalars_;
    std::vector<std::pair<std::string, Distribution *>> dists_;
    std::vector<StatGroup *> children_;
};

} // namespace dcl1::stats

#endif // DCL1_STATS_STATS_HH

/**
 * @file
 * Command-line flags, declared once per tool.
 *
 * A tool declares each flag in one place: its spelling, which is also
 * its form, where its value goes (with its range or bare default) and
 * its help line. FlagSet parses argv against those declarations and
 * prints --help from them, so no tool restates the grammar.
 *
 * Values go through strict readers, as environment knobs do
 * (common/env.hh): an integer that does not parse completely, a real
 * number that is not finite and above 0, or a list with no items
 * fatal()s, naming the flag.
 */

#ifndef DCL1_COMMON_FLAGS_HH
#define DCL1_COMMON_FLAGS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/env.hh"

namespace dcl1
{

/**
 * Split @p text at commas, skipping empty items. fatal()s, naming
 * @p name, when no item remains: an empty list is always a typo.
 */
std::vector<std::string> parseList(const char *name,
                                   const std::string &text);

/** The inverse of parseList: @p items joined by commas. */
std::string joinList(const std::vector<std::string> &items);

/**
 * Parse @p text as a finite real number above 0. fatal()s, naming
 * @p name, on anything else: "nan", "inf", "-3", "0", "1x", "".
 */
double parsePositiveReal(const char *name, const std::string &text);

/** The flags of one tool; see the file comment. */
class FlagSet
{
  public:
    /** Receives a flag's value; nullptr when the flag was given bare. */
    using Setter = std::function<void(const std::string *value)>;

    /** @p title heads --help; @p closing (the exit codes) ends it. */
    FlagSet(std::string title, std::string closing);

    /**
     * Declare a flag. @p spec is the usage --help prints, and it sets
     * the form: "--name=META" needs a value, "--name[=META]" takes one
     * or none, "--name" takes none. A '\n' in @p help starts an
     * indented continuation line.
     */
    void add(const std::string &spec, const std::string &help,
             Setter set);

    /// @name Typed targets
    /// A bare "--name[=META]" flag stores @p bare, which only that
    /// form has.
    /// @{
    void add(const std::string &spec, const std::string &help,
             bool &out);
    void add(const std::string &spec, const std::string &help,
             std::string &out, const char *bare = nullptr);
    /** A comma list (parseList). */
    void add(const std::string &spec, const std::string &help,
             std::vector<std::string> &out);
    /** A real number (parsePositiveReal), or a comma list of them. */
    void add(const std::string &spec, const std::string &help,
             double &out);
    void add(const std::string &spec, const std::string &help,
             std::vector<double> &out);

    /** An integer in [@p min, @p max] (parseEnvInt). */
    template <typename Int>
        requires std::is_integral_v<Int>
    void
    add(const std::string &spec, const std::string &help, Int &out,
        std::int64_t min, std::int64_t max, const char *bare = nullptr)
    {
        addValued(spec, help, bare,
                  [&out, min, max](const char *name, const std::string &v) {
                      out = static_cast<Int>(
                          parseEnvInt(name, v.c_str(), min, max));
                  });
    }
    /// @}

    /**
     * Apply @p argv in order, so a later flag overrides an earlier
     * one. An undeclared flag fatal()s, unless @p undeclared is given:
     * then undeclared "--" flags are appended to it verbatim. Returns
     * false when --help (or -h) was given, after printing the help;
     * the caller then exits 0.
     */
    bool parse(int argc, const char *const *argv,
               std::vector<std::string> *undeclared = nullptr) const;

  private:
    /** Stores a flag's value; @p name is the flag's, for errors. */
    using Store =
        std::function<void(const char *name, const std::string &value)>;

    /** A flag that takes a value; @p store gets @p bare when bare. */
    void addValued(const std::string &spec, const std::string &help,
                   const char *bare, Store store);

    enum class Form { Value, Optional, Switch };

    struct Flag
    {
        std::string spec;
        std::string name;
        Form form;
        std::string help;
        Setter set;
    };

    std::string title_;
    std::string closing_;
    std::vector<Flag> flags_;
};

} // namespace dcl1

#endif // DCL1_COMMON_FLAGS_HH

#include "common/flags.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace dcl1
{

std::vector<std::string>
parseList(const char *name, const std::string &text)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            items.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    if (items.empty())
        fatal("%s: no items in '%s' (expected a comma list)", name,
              text.c_str());
    return items;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items)
        out += (out.empty() ? "" : ",") + item;
    return out;
}

double
parsePositiveReal(const char *name, const std::string &text)
{
    if (text.empty())
        fatal("%s: empty value (expected a number)", name);
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        fatal("%s: '%s' is not a number", name, text.c_str());
    if (!std::isfinite(v) || !(v > 0.0))
        fatal("%s: '%s' is not a finite number above 0", name,
              text.c_str());
    return v;
}

FlagSet::FlagSet(std::string title, std::string closing)
    : title_(std::move(title)), closing_(std::move(closing))
{
}

void
FlagSet::add(const std::string &spec, const std::string &help, Setter set)
{
    const Form form = spec.find("[=") != std::string::npos ? Form::Optional
                      : spec.find('=') != std::string::npos ? Form::Value
                                                            : Form::Switch;
    const std::string name = spec.substr(0, spec.find_first_of("[="));
    for (const Flag &other : flags_)
        if (other.name == name)
            panic("flag %s declared twice", name.c_str());
    flags_.push_back({spec, name, form, help, std::move(set)});
}

void
FlagSet::add(const std::string &spec, const std::string &help, bool &out)
{
    add(spec, help, [&out](const std::string *) { out = true; });
}

void
FlagSet::add(const std::string &spec, const std::string &help,
             std::string &out, const char *bare)
{
    addValued(spec, help, bare,
              [&out](const char *, const std::string &v) { out = v; });
}

void
FlagSet::add(const std::string &spec, const std::string &help,
             std::vector<std::string> &out)
{
    addValued(spec, help, nullptr,
              [&out](const char *name, const std::string &v) {
                  out = parseList(name, v);
              });
}

void
FlagSet::add(const std::string &spec, const std::string &help,
             double &out)
{
    addValued(spec, help, nullptr,
              [&out](const char *name, const std::string &v) {
                  out = parsePositiveReal(name, v);
              });
}

void
FlagSet::add(const std::string &spec, const std::string &help,
             std::vector<double> &out)
{
    addValued(spec, help, nullptr,
              [&out](const char *name, const std::string &v) {
                  out.clear();
                  for (const std::string &item : parseList(name, v))
                      out.push_back(parsePositiveReal(name, item));
              });
}

void
FlagSet::addValued(const std::string &spec, const std::string &help,
                   const char *bare, Store store)
{
    if ((spec.find("[=") != std::string::npos) != (bare != nullptr))
        panic("flag '%s': a bare value goes with the --name[=META] form",
              spec.c_str());
    add(spec, help,
        [name = spec.substr(0, spec.find_first_of("[=")),
         bare = std::string(bare ? bare : ""),
         store = std::move(store)](const std::string *value) {
            store(name.c_str(), value ? *value : bare);
        });
}

bool
FlagSet::parse(int argc, const char *const *argv,
               std::vector<std::string> *undeclared) const
{
    bool help = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help = true;
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto flag =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (flag == flags_.end()) {
            if (!undeclared || arg.compare(0, 2, "--") != 0)
                fatal("unknown option '%s' (--help lists them)",
                      arg.c_str());
            undeclared->push_back(arg);
        } else if (eq == std::string::npos) {
            if (flag->form == Form::Value)
                fatal("%s needs a value (%s)", name.c_str(),
                      flag->spec.c_str());
            flag->set(nullptr);
        } else {
            if (flag->form == Form::Switch)
                fatal("%s takes no value (got '%s')", name.c_str(),
                      arg.c_str());
            const std::string value = arg.substr(eq + 1);
            flag->set(&value);
        }
    }
    if (!help)
        return true;

    const std::string help_spec = "-h, --help";
    std::size_t width = help_spec.size();
    for (const Flag &f : flags_)
        width = std::max(width, f.spec.size());
    std::printf("%s\n\n", title_.c_str());
    auto line = [&](const std::string &spec, std::string text) {
        for (std::size_t nl = text.find('\n'); nl != std::string::npos;
             nl = text.find('\n', nl + 1))
            text.insert(nl + 1, width + 4, ' ');
        std::printf("  %-*s  %s\n", static_cast<int>(width), spec.c_str(),
                    text.c_str());
    };
    for (const Flag &f : flags_)
        line(f.spec, f.help);
    line(help_spec, "this text");
    std::printf("\n%s\n", closing_.c_str());
    return false;
}

} // namespace dcl1

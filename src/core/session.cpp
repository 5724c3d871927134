#include "core/session.h"

#include <algorithm>

#include "util/rng.h"

namespace cookiepicker::core {

Session::Session(net::Transport& transport, std::string host,
                 const SessionConfig& config)
    : host_(std::move(host)),
      browser_(transport, clock_, cookies::CookiePolicy::recommended(),
               config.seed ^ util::fnv1a64(host_)),
      picker_(browser_, [&config] {
        CookiePickerConfig picker = config.picker;
        picker.sharedKnowledge = config.knowledge;
        return picker;
      }()) {}

ForcumStepReport Session::browse(int view, int pages) {
  return picker_.browse("http://" + host_ + "/page" +
                        std::to_string(view % std::max(1, pages)));
}

void Session::run(int views, int pages) {
  for (int view = 0; view < views; ++view) browse(view, pages);
  picker_.enforceStableHosts();
  picker_.publishKnowledge();
}

}  // namespace cookiepicker::core

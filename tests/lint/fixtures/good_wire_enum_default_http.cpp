// Linted as src/httpd/good_wire_enum_default_http.cpp: every RequestStatus
// is enumerated, so a new one is a -Wswitch event.
#include "httpd/http_message.hpp"

namespace iwscan::http {

bool answer_now(RequestStatus status) {
  switch (status) {
    case RequestStatus::NeedMore:
      return false;
    case RequestStatus::Invalid:
      return false;
    case RequestStatus::Complete:
      return true;
  }
  return false;
}

}  // namespace iwscan::http

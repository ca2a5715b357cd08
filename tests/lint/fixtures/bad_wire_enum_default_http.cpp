// Linted as src/httpd/bad_wire_enum_default_http.cpp: the default: hides
// any newly registered RequestStatus from -Wswitch.
#include "httpd/http_message.hpp"

namespace iwscan::http {

bool answer_now(RequestStatus status) {
  switch (status) {
    case RequestStatus::Complete:
      return true;
    default:
      return false;
  }
}

}  // namespace iwscan::http

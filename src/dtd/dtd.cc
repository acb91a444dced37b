#include "src/dtd/dtd.h"

#include "src/common/str_util.h"

namespace xvu {

std::string Production::ToString() const {
  switch (kind) {
    case ContentKind::kPcdata:
      return "#PCDATA";
    case ContentKind::kEmpty:
      return "EMPTY";
    case ContentKind::kSequence:
      return Join(children, ", ");
    case ContentKind::kAlternation:
      return Join(children, " + ");
    case ContentKind::kStar:
      return children[0] + "*";
  }
  return "?";
}

Status Dtd::AddElement(const std::string& type, Production production) {
  if (productions_.count(type) > 0) {
    return Status::AlreadyExists("element type " + type + " already defined");
  }
  if (production.kind == ContentKind::kStar &&
      production.children.size() != 1) {
    return Status::InvalidArgument("star production needs exactly one child");
  }
  productions_.emplace(type, std::move(production));
  return Status::OK();
}

const Production* Dtd::GetProduction(const std::string& type) const {
  auto it = productions_.find(type);
  return it == productions_.end() ? nullptr : &it->second;
}

std::vector<std::string> Dtd::Types() const {
  std::vector<std::string> out;
  out.reserve(productions_.size());
  for (const auto& [t, _] : productions_) out.push_back(t);
  return out;
}

Status Dtd::Validate() const {
  if (root_.empty()) return Status::InvalidArgument("DTD has no root type");
  if (!HasElement(root_)) {
    return Status::InvalidArgument("root type " + root_ + " not defined");
  }
  for (const auto& [type, prod] : productions_) {
    for (const std::string& c : prod.children) {
      if (!HasElement(c)) {
        return Status::InvalidArgument("type " + type +
                                       " references undefined child " + c);
      }
    }
  }
  return Status::OK();
}

bool Dtd::IsRecursive() const {
  for (const auto& [t, _] : productions_) {
    if (IsRecursiveType(t)) return true;
  }
  return false;
}

bool Dtd::IsRecursiveType(const std::string& type) const {
  // `type` is recursive iff it is reachable from one of its children.
  const Production* p = GetProduction(type);
  if (p == nullptr) return false;
  for (const std::string& c : p->children) {
    std::set<std::string> reach = ReachableTypes(c);
    if (reach.count(type) > 0) return true;
  }
  return false;
}

std::vector<std::string> Dtd::ParentTypes(const std::string& type) const {
  std::vector<std::string> out;
  for (const auto& [t, prod] : productions_) {
    for (const std::string& c : prod.children) {
      if (c == type) {
        out.push_back(t);
        break;
      }
    }
  }
  return out;
}

std::set<std::string> Dtd::ReachableTypes(const std::string& from) const {
  std::set<std::string> seen;
  std::vector<std::string> stack = {from};
  while (!stack.empty()) {
    std::string t = stack.back();
    stack.pop_back();
    if (!seen.insert(t).second) continue;
    const Production* p = GetProduction(t);
    if (p == nullptr) continue;
    for (const std::string& c : p->children) stack.push_back(c);
  }
  return seen;
}

std::string Dtd::ToString() const {
  std::string out;
  // Root first, then the rest sorted.
  auto render = [&](const std::string& t, const Production& p) {
    out += "<!ELEMENT " + t + " (" + p.ToString() + ")>\n";
  };
  const Production* rp = GetProduction(root_);
  if (rp != nullptr) render(root_, *rp);
  for (const auto& [t, p] : productions_) {
    if (t != root_) render(t, p);
  }
  return out;
}

}  // namespace xvu

#include "core/schema/class_def.h"

#include <algorithm>

#include "core/types/type_registry.h"

namespace tchimera {
namespace {

template <typename T>
void SortByName(std::vector<T>* items) {
  std::sort(items->begin(), items->end(),
            [](const T& a, const T& b) { return a.name < b.name; });
}

}  // namespace

std::string MethodDef::ToString() const {
  std::string out = name + ": ";
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) out += " x ";
    out += inputs[i]->ToString();
  }
  if (inputs.empty()) out += "()";
  out += " -> ";
  out += output == nullptr ? "void" : output->ToString();
  return out;
}

const char* ClassKindName(ClassKind kind) {
  return kind == ClassKind::kStatic ? "static" : "historical";
}

ClassDef::ClassDef(std::string name, TimePoint created_at,
                   std::vector<std::string> direct_superclasses,
                   std::vector<AttributeDef> effective_attributes,
                   std::vector<MethodDef> effective_methods,
                   std::vector<AttributeDef> effective_c_attributes,
                   std::vector<MethodDef> effective_c_methods)
    : name_(std::move(name)),
      lifespan_(Interval::FromUntilNow(created_at)),
      superclasses_(std::move(direct_superclasses)),
      attributes_(std::move(effective_attributes)),
      methods_(std::move(effective_methods)),
      c_attributes_(std::move(effective_c_attributes)),
      c_methods_(std::move(effective_c_methods)),
      metaclass_("m-" + name_) {
  SortByName(&attributes_);
  SortByName(&methods_);
  SortByName(&c_attributes_);
  SortByName(&c_methods_);
  c_attr_values_.resize(c_attributes_.size());  // all null initially
}

ClassKind ClassDef::kind() const {
  for (const AttributeDef& a : c_attributes_) {
    if (a.is_temporal()) return ClassKind::kHistorical;
  }
  return ClassKind::kStatic;
}

Value ClassDef::History() const {
  std::vector<Value::Field> fields;
  fields.reserve(c_attributes_.size() + 2);
  for (size_t i = 0; i < c_attributes_.size(); ++i) {
    fields.emplace_back(c_attributes_[i].name, c_attr_values_[i]);
  }
  fields.emplace_back("ext", Value::Temporal(ext()));
  fields.emplace_back("proper-ext", Value::Temporal(proper_ext()));
  // Field names are unique by construction ("ext"/"proper-ext" are
  // reserved and rejected as c-attribute names at definition time).
  Result<Value> record = Value::Record(std::move(fields));
  return record.ok() ? std::move(record).value() : Value::Null();
}

const AttributeDef* ClassDef::FindAttribute(std::string_view name) const {
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const AttributeDef& a, std::string_view n) { return a.name < n; });
  if (it == attributes_.end() || it->name != name) return nullptr;
  return &*it;
}

const AttributeDef* ClassDef::FindCAttribute(std::string_view name) const {
  auto it = std::lower_bound(
      c_attributes_.begin(), c_attributes_.end(), name,
      [](const AttributeDef& a, std::string_view n) { return a.name < n; });
  if (it == c_attributes_.end() || it->name != name) return nullptr;
  return &*it;
}

const MethodDef* ClassDef::FindMethod(std::string_view name) const {
  auto it = std::lower_bound(
      methods_.begin(), methods_.end(), name,
      [](const MethodDef& m, std::string_view n) { return m.name < n; });
  if (it == methods_.end() || it->name != name) return nullptr;
  return &*it;
}

bool ClassDef::HasTemporalAttributes() const {
  for (const AttributeDef& a : attributes_) {
    if (a.is_temporal()) return true;
  }
  return false;
}

bool ClassDef::HasStaticAttributes() const {
  for (const AttributeDef& a : attributes_) {
    if (!a.is_temporal()) return true;
  }
  return false;
}

const Type* ClassDef::StructuralType() const {
  if (attributes_.empty()) return nullptr;
  std::vector<RecordField> fields;
  fields.reserve(attributes_.size());
  for (const AttributeDef& a : attributes_) {
    fields.push_back({a.name, a.type});
  }
  Result<const Type*> r = types::RecordOf(std::move(fields));
  return r.ok() ? r.value() : nullptr;
}

const Type* ClassDef::HistoricalType() const {
  std::vector<RecordField> fields;
  for (const AttributeDef& a : attributes_) {
    if (!a.is_temporal()) continue;
    // (a_i, T'_i) with T'_i = T^-(T_i).
    fields.push_back({a.name, a.type->element()});
  }
  if (fields.empty()) return nullptr;
  Result<const Type*> r = types::RecordOf(std::move(fields));
  return r.ok() ? r.value() : nullptr;
}

const Type* ClassDef::StaticType() const {
  std::vector<RecordField> fields;
  for (const AttributeDef& a : attributes_) {
    if (a.is_temporal()) continue;
    fields.push_back({a.name, a.type});
  }
  if (fields.empty()) return nullptr;
  Result<const Type*> r = types::RecordOf(std::move(fields));
  return r.ok() ? r.value() : nullptr;
}

std::vector<Oid> ClassDef::ExtentAt(TimePoint t) const {
  return members_.MembersAt(t);
}

std::vector<Oid> ClassDef::ProperExtentAt(TimePoint t) const {
  return instances_.MembersAt(t);
}

size_t ClassDef::ExtentSizeAt(TimePoint t) const {
  return members_.CountAt(t);
}

bool ClassDef::InExtentAt(Oid oid, TimePoint t) const {
  return members_.ContainsAt(oid, t);
}

bool ClassDef::InProperExtentAt(Oid oid, TimePoint t) const {
  return instances_.ContainsAt(oid, t);
}

IntervalSet ClassDef::MemberIntervals(Oid oid, TimePoint current) const {
  std::vector<Interval> out;
  for (const Interval& iv : members_.IntervalsOf(oid)) {
    Interval r = iv.Resolve(current);
    if (!r.empty()) out.push_back(r);
  }
  return IntervalSet(std::move(out));
}

IntervalSet ClassDef::RawMemberIntervals(Oid oid) const {
  std::span<const Interval> posting = members_.IntervalsOf(oid);
  return IntervalSet(std::vector<Interval>(posting.begin(), posting.end()));
}

Status ClassDef::AddMember(Oid oid, TimePoint t) {
  members_.AddFrom(oid, t);
  return Status::OK();
}
Status ClassDef::RemoveMember(Oid oid, TimePoint t) {
  members_.RemoveFrom(oid, t);
  return Status::OK();
}
Status ClassDef::AddInstance(Oid oid, TimePoint t) {
  instances_.AddFrom(oid, t);
  return Status::OK();
}
Status ClassDef::RemoveInstance(Oid oid, TimePoint t) {
  instances_.RemoveFrom(oid, t);
  return Status::OK();
}

Result<Value> ClassDef::CAttributeValue(std::string_view name) const {
  for (size_t i = 0; i < c_attributes_.size(); ++i) {
    if (c_attributes_[i].name == name) return c_attr_values_[i];
  }
  return Status::NotFound("class " + name_ + " has no c-attribute '" +
                          std::string(name) + "'");
}

Status ClassDef::SetCAttribute(std::string_view name, Value v, TimePoint t) {
  for (size_t i = 0; i < c_attributes_.size(); ++i) {
    if (c_attributes_[i].name != name) continue;
    if (c_attributes_[i].is_temporal()) {
      TemporalFunction f;
      if (c_attr_values_[i].kind() == ValueKind::kTemporal) {
        f = c_attr_values_[i].AsTemporal();
      }
      TCH_RETURN_IF_ERROR(f.AssertFrom(t, std::move(v)));
      c_attr_values_[i] = Value::Temporal(std::move(f));
    } else {
      c_attr_values_[i] = std::move(v);
    }
    return Status::OK();
  }
  return Status::NotFound("class " + name_ + " has no c-attribute '" +
                          std::string(name) + "'");
}

Status ClassDef::RestoreState(const Interval& lifespan,
                              ExtentPostings members,
                              ExtentPostings instances,
                              std::vector<Value> c_attr_values) {
  if (c_attr_values.size() != c_attributes_.size()) {
    return Status::Corruption(
        "class " + name_ + ": restored " +
        std::to_string(c_attr_values.size()) + " c-attribute values for " +
        std::to_string(c_attributes_.size()) + " c-attributes");
  }
  lifespan_ = lifespan;
  members_ = std::move(members);
  instances_ = std::move(instances);
  c_attr_values_ = std::move(c_attr_values);
  return Status::OK();
}

void ClassDef::ScrubFromExtents(Oid oid) {
  members_.Erase(oid);
  instances_.Erase(oid);
}

Status ClassDef::CloseLifespan(TimePoint t) {
  if (!lifespan_.is_ongoing()) {
    return Status::FailedPrecondition("class " + name_ +
                                      " is already deleted");
  }
  if (t < lifespan_.start()) {
    return Status::TemporalError("cannot close lifespan of class " + name_ +
                                 " before its creation");
  }
  lifespan_ = Interval(lifespan_.start(), t);
  members_.CloseAt(t);
  instances_.CloseAt(t);
  return Status::OK();
}

}  // namespace tchimera

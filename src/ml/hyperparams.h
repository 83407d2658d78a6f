#ifndef KGPIP_ML_HYPERPARAMS_H_
#define KGPIP_ML_HYPERPARAMS_H_

#include <map>
#include <string>

#include "util/json.h"

namespace kgpip::ml {

/// A flat bag of named hyper-parameters (numeric or string). Learners read
/// the keys they understand and ignore the rest, so one bag can configure a
/// whole pipeline.
class HyperParams {
 public:
  HyperParams() = default;

  void SetNum(const std::string& key, double value) {
    numeric_[key] = value;
  }
  void SetStr(const std::string& key, std::string value) {
    strings_[key] = std::move(value);
  }

  double GetNum(const std::string& key, double fallback) const {
    auto it = numeric_.find(key);
    return it == numeric_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = numeric_.find(key);
    return it == numeric_.end() ? fallback : static_cast<int>(it->second);
  }
  std::string GetStr(const std::string& key,
                     const std::string& fallback) const {
    auto it = strings_.find(key);
    return it == strings_.end() ? fallback : it->second;
  }

  const std::map<std::string, double>& numeric() const { return numeric_; }
  const std::map<std::string, std::string>& strings() const {
    return strings_;
  }

  Json ToJson() const {
    Json out = Json::Object();
    for (const auto& [k, v] : numeric_) out.Set(k, Json(v));
    for (const auto& [k, v] : strings_) out.Set(k, Json(v));
    return out;
  }

  /// Compact "k=v,k=v" rendering for logs and benchmark output.
  std::string ToString() const {
    std::string out;
    for (const auto& [k, v] : numeric_) {
      if (!out.empty()) out += ",";
      out += k + "=" + std::to_string(v);
    }
    for (const auto& [k, v] : strings_) {
      if (!out.empty()) out += ",";
      out += k + "=" + v;
    }
    return out;
  }

 private:
  std::map<std::string, double> numeric_;
  std::map<std::string, std::string> strings_;
};

}  // namespace kgpip::ml

#endif  // KGPIP_ML_HYPERPARAMS_H_

#include "program.hh"

namespace wg {

Program::Program(std::vector<Instruction> instrs)
    : instrs_(std::make_shared<const std::vector<Instruction>>(
          std::move(instrs))),
      data_(instrs_->data()), size_(instrs_->size())
{
    for (const auto& i : *instrs_)
        ++class_counts_[static_cast<std::size_t>(i.unit)];
}

std::size_t
Program::countOf(UnitClass uc) const
{
    return class_counts_[static_cast<std::size_t>(uc)];
}

} // namespace wg

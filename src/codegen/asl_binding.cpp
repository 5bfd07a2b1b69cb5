#include "codegen/asl_binding.hpp"

#include <memory>

#include "asl/parser.hpp"
#include "statechart/engine.hpp"

namespace umlsoc::codegen {

namespace {

/// Delegates to the user's context but adds var()/set_var() operations that
/// touch the dispatching machine instance's variable store.
class MachineScopedContext : public asl::ObjectContext {
 public:
  MachineScopedContext(asl::ObjectContext& base, statechart::Engine& instance)
      : base_(base), instance_(instance) {}

  asl::Value get_attribute(const std::string& name) override {
    return base_.get_attribute(name);
  }
  void set_attribute(const std::string& name, asl::Value value) override {
    base_.set_attribute(name, std::move(value));
  }
  asl::Value call(const std::string& operation,
                  const std::vector<asl::Value>& arguments) override {
    if (operation == "var" && arguments.size() == 1) {
      return asl::Value{instance_.variable(arguments[0].as_string())};
    }
    if (operation == "set_var" && arguments.size() == 2) {
      instance_.set_variable(arguments[0].as_string(), arguments[1].as_int());
      return asl::Value{};
    }
    return base_.call(operation, arguments);
  }
  void send_signal(const std::string& target, const std::string& signal,
                   const std::vector<asl::Value>& arguments) override {
    base_.send_signal(target, signal, arguments);
  }

 private:
  asl::ObjectContext& base_;
  statechart::Engine& instance_;
};

std::shared_ptr<const asl::Program> compile(const std::string& source,
                                            const std::string& subject, bool expression,
                                            support::DiagnosticSink& sink, bool& ok) {
  support::DiagnosticSink local_sink;
  std::optional<asl::Program> program =
      asl::parse(expression ? "return (" + source + ");" : source, local_sink);
  if (!program.has_value()) {
    sink.error(subject, "ASL does not parse: " + source + "\n" + local_sink.str());
    ok = false;
    return nullptr;
  }
  return std::make_shared<const asl::Program>(std::move(*program));
}

void seed_event_locals(asl::Environment& environment, const statechart::ActionContext& ctx) {
  environment.set_local("data", asl::Value{ctx.event != nullptr ? ctx.event->data : 0});
  environment.set_local(
      "event", asl::Value{ctx.event != nullptr ? ctx.event->name : std::string{}});
}

class MachineBinder {
 public:
  MachineBinder(asl::ObjectContext& context, support::DiagnosticSink& sink)
      : context_(context), sink_(sink) {}

  bool bind(statechart::StateMachine& machine) {
    bind_region(machine.top());
    return ok_;
  }

 private:
  void bind_region(statechart::Region& region) {
    for (const auto& vertex : region.vertices()) {
      auto* state = dynamic_cast<statechart::State*>(vertex.get());
      if (state == nullptr) continue;
      bind_state_behavior(*state, state->entry(), &statechart::State::set_entry);
      bind_state_behavior(*state, state->exit_behavior(), &statechart::State::set_exit);
      bind_state_behavior(*state, state->do_activity(), &statechart::State::set_do_activity);
      for (const auto& subregion : state->regions()) bind_region(*subregion);
    }
    for (const auto& transition : region.transitions()) {
      bind_transition(*transition);
    }
  }

  void bind_state_behavior(statechart::State& state, const statechart::Behavior& behavior,
                           void (statechart::State::*setter)(statechart::Behavior)) {
    if (behavior.text.empty() || behavior.fn != nullptr) return;
    std::shared_ptr<const asl::Program> program =
        compile(behavior.text, state.qualified_name(), /*expression=*/false, sink_, ok_);
    if (program == nullptr) return;
    asl::ObjectContext* base = &context_;
    (state.*setter)(statechart::Behavior{
        behavior.text, [program, base](statechart::ActionContext& ctx) {
          MachineScopedContext scoped(*base, ctx.instance);
          asl::Environment environment(scoped);
          seed_event_locals(environment, ctx);
          asl::Interpreter interpreter;
          interpreter.execute(*program, environment);
        }});
  }

  void bind_transition(statechart::Transition& transition) {
    const statechart::Guard& guard = transition.guard();
    if (!guard.text.empty() && !guard.is_else() && guard.fn == nullptr) {
      std::shared_ptr<const asl::Program> program = compile(
          guard.text, "guard [" + guard.text + "]", /*expression=*/true, sink_, ok_);
      if (program != nullptr) {
        asl::ObjectContext* base = &context_;
        transition.set_guard(statechart::Guard{
            guard.text, [program, base](const statechart::ActionContext& ctx) {
              MachineScopedContext scoped(*base, ctx.instance);
              asl::Environment environment(scoped);
              seed_event_locals(environment, ctx);
              asl::Interpreter interpreter;
              std::optional<asl::Value> result = interpreter.execute(*program, environment);
              return result.has_value() && result->as_bool();
            }});
      }
    }
    const statechart::Behavior& effect = transition.effect();
    if (!effect.text.empty() && effect.fn == nullptr) {
      std::shared_ptr<const asl::Program> program =
          compile(effect.text, "effect / " + effect.text, /*expression=*/false, sink_, ok_);
      if (program != nullptr) {
        asl::ObjectContext* base = &context_;
        transition.set_effect(statechart::Behavior{
            effect.text, [program, base](statechart::ActionContext& ctx) {
              MachineScopedContext scoped(*base, ctx.instance);
              asl::Environment environment(scoped);
              seed_event_locals(environment, ctx);
              asl::Interpreter interpreter;
              interpreter.execute(*program, environment);
            }});
      }
    }
  }

  asl::ObjectContext& context_;
  support::DiagnosticSink& sink_;
  bool ok_ = true;
};

}  // namespace

bool bind_statechart_asl(statechart::StateMachine& machine, asl::ObjectContext& context,
                         support::DiagnosticSink& sink) {
  return MachineBinder(context, sink).bind(machine);
}

bool bind_activity_asl(activity::Activity& activity, asl::ObjectContext& context,
                       support::DiagnosticSink& sink) {
  bool ok = true;
  for (const auto& node : activity.nodes()) {
    if (node->node_kind() != activity::NodeKind::kAction) continue;
    if (node->script().empty() || node->behavior() != nullptr) continue;
    std::shared_ptr<const asl::Program> program =
        compile(node->script(), activity.name() + "." + node->name(), /*expression=*/false,
                sink, ok);
    if (program == nullptr) continue;
    asl::ObjectContext* base = &context;
    node->set_behavior([program, base](activity::ActionFiring& firing) {
      asl::Environment environment(*base);
      environment.set_local(
          "input", asl::Value{firing.inputs.empty() ? 0 : firing.inputs.front().value});
      asl::Interpreter interpreter;
      std::optional<asl::Value> result = interpreter.execute(*program, environment);
      if (result.has_value()) {
        firing.output = result->as_int();
      } else if (environment.has_local("output")) {
        firing.output = environment.local("output").as_int();
      }
    });
  }
  for (const auto& edge : activity.edges()) {
    const activity::EdgeGuard& guard = edge->guard();
    if (guard.text.empty() || guard.is_else() || guard.fn != nullptr) continue;
    std::shared_ptr<const asl::Program> program =
        compile(guard.text, activity.name() + " edge [" + guard.text + "]",
                /*expression=*/true, sink, ok);
    if (program == nullptr) continue;
    asl::ObjectContext* base = &context;
    edge->set_guard(activity::EdgeGuard{guard.text, [program, base](const activity::Token& token) {
                                          asl::Environment environment(*base);
                                          environment.set_local("token",
                                                                asl::Value{token.value});
                                          asl::Interpreter interpreter;
                                          std::optional<asl::Value> result =
                                              interpreter.execute(*program, environment);
                                          return result.has_value() && result->as_bool();
                                        }});
  }
  return ok;
}

}  // namespace umlsoc::codegen

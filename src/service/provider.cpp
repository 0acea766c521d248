#include "service/provider.h"

#include "campaign/campaign.h"

namespace hmpt::service {

tuner::TuningOutcome SimulatorProvider::run(
    const campaign::Scenario& scenario, const CancelToken& token) {
  // The simulator runs in one uninterrupted burst; honour a cancel or an
  // already-expired deadline before starting the burn.
  token.check();
  return campaign::CampaignRunner::execute(scenario);
}

}  // namespace hmpt::service
